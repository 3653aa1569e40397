"""Live adapters wrapping the offline baselines as pluggable detectors.

Each adapter turns one decision rule from :mod:`repro.baselines` (or a
related-work cross-check) into a :class:`~repro.arena.base.Detector`
that taps the medium at a cluster head and convicts through the shared
isolation pipeline.  The offline baseline classes stay the single source
of truth for the decision rules — the adapters only feed them *live*
observations instead of a recorded reply list.

All adapters are deterministic and RNG-free.  The only one that
transmits is the naive prober, and it derives its probe addresses and
identifiers deterministically from observed traffic (and transmits
nothing at all in passive mode).
"""

from __future__ import annotations

from collections import Counter

from repro.arena.base import ArenaConfig, Detector, per_rsu_installer, register_detector
from repro.baselines import (
    NaiveProbeDetector,
    PeakThresholdDetector,
    SequenceComparisonDetector,
    StaticThresholdDetector,
    WatchdogTrustDetector,
)
from repro.net.network import BROADCAST
from repro.routing.packets import UNKNOWN_SEQ, DataPacket, RouteReply, RouteRequest

#: rreq_id namespace of naive-prober RREQs (flooders use 1_000_000+)
_NAIVE_RREQ_BASE = 2_000_000

#: delay between overhearing a suspicious reply and emitting the probe,
#: so the probe never interleaves with the triggering transmission
_NAIVE_PROBE_DELAY = 0.005


class _OverhearingDetector(Detector):
    """Common plumbing: tap the RSU's radio, detach on :meth:`stop`."""

    def __init__(self, service, config: ArenaConfig) -> None:
        super().__init__(service, config)
        self.rsu.network.add_monitor(self.rsu, self._on_overhear)

    def stop(self) -> None:
        if self.rsu.network is not None:
            self.rsu.network.remove_monitor(self.rsu, self._on_overhear)

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        raise NotImplementedError


class SequenceComparisonAdapter(_OverhearingDetector):
    """Live first-reply-outlier test (Jaiswal et al.).

    Collects the distinct repliers of each ``(originator, destination)``
    discovery in observed order and, once a second opinion exists, asks
    the offline :class:`SequenceComparisonDetector` whether the *first*
    reply dwarfs the rest.  Defeated by sybil corroboration (the chorus
    lifts ``rest_max``) and by modest-margin adaptive replies.
    """

    name = "sequence"

    def __init__(self, service, config: ArenaConfig) -> None:
        super().__init__(service, config)
        self.baseline = SequenceComparisonDetector(ratio=config.sequence_ratio)
        #: (originator, destination) -> first-seen reply per replier
        self._replies: dict[tuple[str, str], list[RouteReply]] = {}

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if not isinstance(packet, RouteReply) or not packet.replied_by:
            return
        group = self._replies.setdefault(
            (packet.originator, packet.destination), []
        )
        if any(seen.replied_by == packet.replied_by for seen in group):
            return  # forwarded copy or repeat claim
        group.append(packet)
        if len(group) < 2:
            return
        verdict = self.baseline.evaluate(group)
        for suspect in verdict.flagged:
            self._convict(
                suspect,
                f"first reply for {packet.destination} dwarfs "
                f"{len(group) - 1} other(s)",
            )


class _ThresholdAdapter(_OverhearingDetector):
    """Shared live wrapper of the absolute sequence-number thresholds."""

    def __init__(self, service, config: ArenaConfig) -> None:
        super().__init__(service, config)
        self.baseline = self._make_baseline(config)
        self._seen: set[tuple[str, str, str, int]] = set()

    def _make_baseline(self, config: ArenaConfig):
        raise NotImplementedError

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if not isinstance(packet, RouteReply) or not packet.replied_by:
            return
        key = (
            packet.originator,
            packet.destination,
            packet.replied_by,
            packet.destination_seq,
        )
        if key in self._seen:
            return  # the same claim, forwarded along the reverse path
        self._seen.add(key)
        # evaluate() also folds accepted replies into an adaptive
        # baseline (the peak detector's growth), so nothing else updates it.
        verdict = self.baseline.evaluate([packet])
        if verdict.flagged:
            self._convict(
                packet.replied_by,
                f"destination_seq={packet.destination_seq} above threshold",
            )


class PeakThresholdAdapter(_ThresholdAdapter):
    """Live dynamic-peak threshold (grows with accepted traffic)."""

    name = "peak"

    def _make_baseline(self, config: ArenaConfig):
        return PeakThresholdDetector(
            initial_peak=config.peak_initial, growth=config.peak_growth
        )


class StaticThresholdAdapter(_ThresholdAdapter):
    """Live fixed per-environment threshold."""

    name = "static"

    def _make_baseline(self, config: ArenaConfig):
        return StaticThresholdDetector(environment=config.environment)


class TrustWatchdogAdapter(_OverhearingDetector):
    """Live watchdog: per-epoch handoff/forward reconciliation.

    Uses the same overhear rules as the sketch monitors (a member that
    is *handed* transit data should be seen *forwarding* within the
    epoch) but exact counters and the offline
    :class:`WatchdogTrustDetector` trust ledger.  Catches every dropper
    the moment data actually flows — black holes, gray holes, wormhole
    entry points — and is blind to pure routing-layer lies.
    """

    name = "trust"

    def __init__(self, service, config: ArenaConfig) -> None:
        super().__init__(service, config)
        self.baseline = WatchdogTrustDetector()
        self._handoffs: Counter = Counter()
        self._forwards: Counter = Counter()
        self._timer = self.rsu.sim.schedule(
            config.trust_epoch, self._epoch_tick, label="trust epoch"
        )

    def stop(self) -> None:
        super().stop()
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if not isinstance(packet, DataPacket):
            return
        membership = self.rsu.membership
        if (
            intended != packet.final_destination
            and intended != BROADCAST
            and membership.is_member(intended)
        ):
            self._handoffs[intended] += 1
        if packet.hops_travelled >= 1 and membership.is_member(sender):
            self._forwards[sender] += 1

    def _epoch_tick(self) -> None:
        for member, handed in sorted(self._handoffs.items()):
            forwarded = self._forwards.get(member, 0)
            hits = min(handed, forwarded)
            for _ in range(hits):
                self.baseline.observe(member, True)
            for _ in range(handed - hits):
                self.baseline.observe(member, False)
            if self.baseline.is_flagged(member):
                score = self.baseline.trust.get(member, 0.0)
                self._convict(
                    member,
                    f"trust {score:.2f} after "
                    f"{handed - hits} unforwarded handoff(s)",
                )
        self._handoffs.clear()
        self._forwards.clear()
        self._timer = self.rsu.sim.schedule(
            self.config.trust_epoch,
            self._epoch_tick,
            label="trust epoch",
        )


class NaiveProbeAdapter(_OverhearingDetector):
    """Live single-probe check (the ablation the paper argues against).

    On overhearing a member claim a route it did not terminate, the
    adapter re-requests the *same destination* once, from a fresh
    throwaway identity, and convicts the member if it answers again.
    One probe, the real destination, no escalation — so a probe-aware
    adaptive attacker simply stays silent and walks; and any honest
    member legitimately answering from its route cache is convicted
    wrongly (the false-positive column of the arena matrix).
    """

    name = "naive"

    def __init__(self, service, config: ArenaConfig) -> None:
        super().__init__(service, config)
        self.baseline = NaiveProbeDetector()
        self._probed: set[tuple[str, str]] = set()
        #: probe alias -> (suspect, destination) awaiting a reply
        self._pending: dict[str, tuple[str, str]] = {}
        self._probes_sent = 0

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if not isinstance(packet, RouteReply) or not packet.replied_by:
            return
        pending = self._pending.get(packet.originator)
        if pending is not None:
            suspect, destination = pending
            if (
                packet.replied_by == suspect
                and packet.destination == destination
                and self.baseline.probe_verdict(packet)
            ):
                self._convict(
                    suspect, f"answered re-probe for {destination}"
                )
            return
        if not self.config.convict:
            return  # passive mode: observe only, never transmit
        suspect = packet.replied_by
        if (
            suspect == packet.destination
            or packet.originator in self._pending
            or not self.rsu.membership.is_member(suspect)
            or (suspect, packet.destination) in self._probed
            or self._probes_sent >= self.config.naive_max_probes
        ):
            return
        self._probed.add((suspect, packet.destination))
        self._probes_sent += 1
        alias = f"naive-{self.rsu.cluster_index}-{self._probes_sent}"
        self._pending[alias] = (suspect, packet.destination)
        self.rsu.network.add_alias(alias, self.rsu)
        self.rsu.sim.schedule(
            _NAIVE_PROBE_DELAY,
            self._send_probe,
            args=(alias, packet.destination),
            label="naive probe",
        )

    def _send_probe(self, alias: str, destination: str) -> None:
        if self.rsu.network is None:
            return
        self.rsu.send(
            RouteRequest(
                src=alias,
                dst=BROADCAST,
                originator=alias,
                originator_seq=1,
                destination=destination,
                destination_seq=UNKNOWN_SEQ,
                hop_count=0,
                rreq_id=_NAIVE_RREQ_BASE + self._probes_sent,
            )
        )

    def stop(self) -> None:
        super().stop()
        if self.rsu.network is not None:
            for alias in self._pending:
                self.rsu.network.remove_alias(alias, self.rsu)
        self._pending.clear()


class DriCrossCheckAdapter(_OverhearingDetector):
    """Topology cross-check in the spirit of DRI tables (Ramaswamy et al.).

    A reply claiming ``hop_count <= dri_max_hops`` adjacency to the
    destination is only physically possible when that destination lives
    in radio range — i.e. is admitted by this cluster head or one of its
    neighbours.  A member claiming one-hop adjacency to a vehicle no
    local or adjacent membership table has ever admitted is lying about
    topology: exactly the wormhole's tell (and the classic black hole's,
    which claims hop 1 to everything).  The adaptive attacker's multi-hop
    claims sail through — topology cannot refute them.
    """

    name = "dri"

    def _destination_plausible(self, destination: str) -> bool:
        membership = self.rsu.membership
        if membership.is_member(destination) or membership.was_member(destination):
            return True
        for neighbor in self.rsu.neighbor_rsus:
            if neighbor.membership.is_member(destination) or (
                neighbor.membership.was_member(destination)
            ):
                return True
        return False

    def _on_overhear(self, packet, sender: str, intended: str) -> None:
        if not isinstance(packet, RouteReply) or not packet.replied_by:
            return
        suspect = packet.replied_by
        if (
            suspect == packet.destination
            or packet.hop_count > self.config.dri_max_hops
            or packet.destination.startswith("rsu-")
            or not self.rsu.membership.is_member(suspect)
        ):
            return
        if self._destination_plausible(packet.destination):
            return
        self._convict(
            suspect,
            f"claims {packet.hop_count}-hop adjacency to "
            f"{packet.destination}, unknown to this and adjacent clusters",
        )


def _install_sketch(world, config: ArenaConfig) -> list:
    """Arena entry for the PR-7 aggregate sketch monitors.

    The monitors carry their own conviction logic (``rreq-flood``
    verdicts through :meth:`convict_flooder`), so passive arena mode
    installs nothing rather than installing convicting taps.
    """
    if not config.convict:
        return []
    return world.install_sketch_monitors()


def _install_examiner(world, config: ArenaConfig) -> list:
    """The paper's probe examiner is built into every world already.

    Naming it in ``ArenaConfig.detectors`` installs nothing extra; it
    keeps verifier-driven verification on (the examiner only acts on
    reported suspects), whereas any detector set *without* it makes the
    trial run plain AODV discovery instead.
    """
    return []


register_detector("sequence", per_rsu_installer(SequenceComparisonAdapter))
register_detector("peak", per_rsu_installer(PeakThresholdAdapter))
register_detector("static", per_rsu_installer(StaticThresholdAdapter))
register_detector("trust", per_rsu_installer(TrustWatchdogAdapter))
register_detector("naive", per_rsu_installer(NaiveProbeAdapter))
register_detector("dri", per_rsu_installer(DriCrossCheckAdapter))
register_detector("sketch", _install_sketch)
register_detector("examiner", _install_examiner)
