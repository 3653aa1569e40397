"""Detector plugin interface for the adversary-detector arena.

A *detector* is a live, pluggable observer attached to the running
world: it taps the radio medium through :meth:`Network.add_monitor`
(every transmission of an in-range node, promiscuous-mode style), keeps
whatever state its decision rule needs, and — when convinced — emits a
verdict through :meth:`DetectionService.convict_suspect` so the
conviction flows into the *existing* isolation pipeline (CRL entry,
backbone propagation, verifier blacklists) exactly like a probe-examiner
conviction would.

The contract, in full:

- construction receives the RSU's :class:`DetectionService` and the
  shared :class:`ArenaConfig`; the detector registers its taps itself;
- a detector must be **deterministic and RNG-free** (any randomness
  would perturb the seeded event stream and break trial replays);
  detectors that transmit (e.g. the naive prober) must derive every
  address/time deterministically from observed traffic;
- when ``config.convict`` is false the detector only *observes*: it must
  not transmit and must not convict — this mode is the golden-trace
  guarantee that an instrumented world replays byte-identically;
- :meth:`Detector.stop` detaches every tap and cancels every timer.

Registration is by name: ``register_detector(name, installer)`` where
``installer(world, config) -> list[Detector]``.  Per-RSU detector
classes can use :func:`per_rsu_installer` to fan one instance out to
every cluster head.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: Verdict string carried by arena convictions.  Listed in
#: :data:`repro.obs.timeline.CONVICTING_VERDICTS` so detection timelines
#: and trial accounting treat arena convictions as detections.
VERDICT_ARENA = "arena-flagged"


@dataclass(frozen=True)
class ArenaConfig:
    """Configuration of the live detectors attached to a trial world."""

    #: detector names to install (see :func:`available_detectors`)
    detectors: tuple[str, ...] = ("examiner",)
    #: False = passive observation only: no convictions, no transmissions
    #: (the golden-trace mode; see module docstring)
    convict: bool = True

    def __post_init__(self) -> None:
        if not self.detectors:
            raise ValueError("ArenaConfig.detectors must name >= 1 detector")


class Detector:
    """Base class for per-RSU live detectors.

    Subclasses set :attr:`name`, register taps in ``__init__`` and
    override :meth:`stop`; convictions go through :meth:`_convict` which
    enforces the shared guards (convict mode, local membership, not
    already revoked).
    """

    name = "detector"

    def __init__(self, service, config: ArenaConfig) -> None:
        self.service = service
        self.rsu = service.rsu
        self.config = config
        if self.rsu.network is None:
            raise RuntimeError("RSU must be attached before the detector")
        #: members this instance convicted, in conviction order
        self.convicted: list[str] = []

    def stop(self) -> None:  # pragma: no cover - overridden
        """Detach taps and cancel timers."""

    def _convict(self, suspect: str, evidence: str):
        if not self.config.convict:
            return None
        if not self.rsu.membership.is_member(suspect):
            return None
        if self.service.crl.is_revoked_id(suspect):
            return None
        record = self.service.convict_suspect(
            suspect, verdict=VERDICT_ARENA, evidence=f"{self.name}: {evidence}"
        )
        if record is not None:
            self.convicted.append(suspect)
        return record


#: name -> installer(world, config) -> list[Detector]
_REGISTRY: dict[str, Callable] = {}


def register_detector(name: str, installer: Callable) -> None:
    """Register a detector installer under ``name`` (last wins)."""
    _REGISTRY[name] = installer


def available_detectors() -> tuple[str, ...]:
    """Registered detector names, sorted."""
    return tuple(sorted(_REGISTRY))


def per_rsu_installer(detector_cls) -> Callable:
    """Installer fanning one ``detector_cls`` instance per cluster head."""

    def install(world, config: ArenaConfig) -> list:
        return [detector_cls(service, config) for service in world.services]

    return install


def install_detectors(world, config: ArenaConfig) -> list:
    """Install every detector named in ``config.detectors``.

    Returns the flat list of live detector instances (the ``examiner``
    entry installs nothing — the paper's probe pipeline is already part
    of the world; naming it simply keeps verifier-driven verification
    on, see :mod:`repro.experiments.trial`).
    """
    unknown = [name for name in config.detectors if name not in _REGISTRY]
    if unknown:
        raise ValueError(
            f"unknown detector(s) {unknown}; available: {available_detectors()}"
        )
    installed: list = []
    for name in config.detectors:
        installed.extend(_REGISTRY[name](world, config))
    return installed
