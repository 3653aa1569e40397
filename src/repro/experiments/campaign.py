"""Resumable experiment campaigns: a crash-safe run ledger.

A *campaign* is a long sweep (e.g. all 3,000 Figure 4 trials) recorded
on disk so that a killed or interrupted run can be picked up exactly
where it stopped — without recomputing anything that finished.  The
ledger lives in one directory:

``manifest.json``
    Written once at creation (atomically): schema, name, the *spec*
    that re-enumerates the work units, the unit count, and a digest of
    every unit's cache key.  Resume refuses a manifest whose keys no
    longer match the configs the spec expands to — that means the
    simulation code or config encoding changed, and silently mixing old
    and new results would corrupt the sweep.

``journal.jsonl``
    One line per *completed* unit, appended as a single ``O_APPEND``
    write (see :func:`~repro.experiments.executor.append_jsonl_line`),
    so a kill can at worst truncate the final line — which the loader
    skips and the re-run repairs.  The journal is the source of truth
    for "what is done".

``checkpoint.json``
    Small progress summary replaced atomically after every batch; it is
    advisory (``status`` reads it for cheap display) — correctness never
    depends on it.

``cache/``
    A standard :class:`~repro.experiments.executor.ResultCache`, shared
    with any other run of the same configs.  The executor writes it when
    a batch returns — the same moment the campaign journals the batch —
    so a kill -9 mid-batch loses the whole batch from both.

Interrupts drain rather than discard: the executor harvests in-flight
chunks (workers ignore SIGINT), the campaign journals them and writes a
checkpoint, and only then does the interrupt continue unwinding.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.experiments.config import TrialConfig
from repro.experiments.executor import (
    TrialExecutor,
    TrialRunInterrupted,
    TrialSummary,
    append_jsonl_line,
    trial_cache_key,
)
from repro.experiments.progress import ProgressAggregator, ProgressEvent

#: Bump when the manifest/journal shape changes incompatibly; stale
#: ledgers are then rejected instead of misread.
CAMPAIGN_SCHEMA = 1

#: Units journaled per checkpoint by default.  Small enough that a kill
#: loses at most a few minutes of serial work; large enough that ledger
#: I/O stays invisible next to the trials themselves.
DEFAULT_BATCH = 50


class CampaignError(RuntimeError):
    """The campaign directory is missing, stale, or inconsistent."""


# ----------------------------------------------------------------------
# Spec registry: how a manifest re-enumerates its work units
# ----------------------------------------------------------------------
#: kind -> expander(spec dict) -> list[TrialConfig].  Module-level so
#: manifests stay plain data; registering a kind makes it resumable.
_SPEC_KINDS: dict[str, Callable[[dict], list[TrialConfig]]] = {}


def register_spec_kind(
    kind: str, expand: Callable[[dict], list[TrialConfig]]
) -> None:
    """Register an expander turning a manifest spec into work units."""
    _SPEC_KINDS[kind] = expand


def expand_spec(spec: dict) -> list[TrialConfig]:
    kind = spec.get("kind")
    expand = _SPEC_KINDS.get(kind)
    if expand is None:
        raise CampaignError(
            f"unknown campaign spec kind {kind!r} "
            f"(known: {sorted(_SPEC_KINDS)})"
        )
    return expand(spec)


def _expand_figure4(spec: dict) -> list[TrialConfig]:
    from repro.experiments.figure4 import figure4_configs

    return figure4_configs(
        trials=int(spec["trials"]),
        attacks=tuple(spec["attacks"]),
        clusters=tuple(int(c) for c in spec["clusters"]),
        base_seed=int(spec["base_seed"]),
    )


register_spec_kind("figure4", _expand_figure4)


def _expand_arena(spec: dict) -> list[TrialConfig]:
    from repro.arena.matrix import expand_arena_spec

    return expand_arena_spec(spec)


register_spec_kind("arena", _expand_arena)


# ----------------------------------------------------------------------
# Ledger primitives
# ----------------------------------------------------------------------
def _write_atomic(path: Path, payload: dict) -> None:
    """Write JSON via a sibling temp file + ``os.replace`` so readers
    (and crashes) only ever see a complete document."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class CampaignStatus:
    """What ``blackdp campaign status`` reports."""

    name: str
    directory: str
    total: int
    completed: int
    corrupt_lines: int

    @property
    def remaining(self) -> int:
        return self.total - self.completed

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    def to_dict(self) -> dict:
        """JSON-ready form (``blackdp campaign status --json``)."""
        return {
            "name": self.name,
            "directory": self.directory,
            "total": self.total,
            "completed": self.completed,
            "remaining": self.remaining,
            "done": self.done,
            "corrupt_lines": self.corrupt_lines,
        }

    def format(self) -> str:
        state = "complete" if self.done else f"{self.remaining} remaining"
        parts = [
            f"campaign {self.name!r} at {self.directory}: "
            f"{self.completed}/{self.total} units ({state})"
        ]
        if self.corrupt_lines:
            parts.append(
                f"  {self.corrupt_lines} corrupt journal lines skipped "
                "(will be recomputed)"
            )
        return "\n".join(parts)


class Campaign:
    """One ledger directory; create once, run/resume any number of times."""

    def __init__(
        self, directory: str | Path, manifest: dict, configs: list[TrialConfig]
    ) -> None:
        self.directory = Path(directory)
        self.manifest = manifest
        self.configs = configs
        self.corrupt_lines = 0
        #: unit index -> journaled summary
        self.completed: dict[int, TrialSummary] = {}
        self._load_journal()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls, directory: str | Path, *, name: str, spec: dict
    ) -> "Campaign":
        """Initialise a new ledger directory from a registered spec."""
        directory = Path(directory)
        if (directory / "manifest.json").exists():
            raise CampaignError(
                f"{directory} already holds a campaign; "
                "use resume (or pick a new directory)"
            )
        configs = expand_spec(spec)
        if not configs:
            raise CampaignError("campaign spec expands to zero work units")
        directory.mkdir(parents=True, exist_ok=True)
        manifest = {
            "schema": CAMPAIGN_SCHEMA,
            "name": name,
            "spec": spec,
            "total_units": len(configs),
            "unit_keys": [trial_cache_key(config) for config in configs],
        }
        _write_atomic(directory / "manifest.json", manifest)
        return cls(directory, manifest, configs)

    @classmethod
    def open(cls, directory: str | Path) -> "Campaign":
        """Load an existing ledger, re-expanding and verifying its units."""
        directory = Path(directory)
        path = directory / "manifest.json"
        try:
            manifest = json.loads(path.read_text())
        except OSError as error:
            raise CampaignError(
                f"no campaign at {directory}: {error}"
            ) from error
        except ValueError as error:
            raise CampaignError(
                f"corrupt campaign manifest at {path}: {error}"
            ) from error
        if manifest.get("schema") != CAMPAIGN_SCHEMA:
            raise CampaignError(
                f"campaign schema {manifest.get('schema')!r} is not the "
                f"current {CAMPAIGN_SCHEMA}; re-create the campaign"
            )
        configs = expand_spec(manifest.get("spec", {}))
        keys = [trial_cache_key(config) for config in configs]
        if keys != manifest.get("unit_keys"):
            raise CampaignError(
                "campaign units no longer match the manifest (the "
                "simulation code or config encoding changed since the "
                "campaign was created); finish it with the original build "
                "or start a fresh campaign"
            )
        return cls(directory, manifest, configs)

    # ------------------------------------------------------------------
    # Ledger state
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.manifest["name"]

    @property
    def cache_dir(self) -> Path:
        return self.directory / "cache"

    def _journal_path(self) -> Path:
        return self.directory / "journal.jsonl"

    def _load_journal(self) -> None:
        path = self._journal_path()
        if not path.exists():
            return
        keys = self.manifest["unit_keys"]
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("s") != CAMPAIGN_SCHEMA:
                    continue
                index = int(record["i"])
                if not 0 <= index < len(keys) or record["k"] != keys[index]:
                    continue  # journal from a different unit list
                self.completed[index] = TrialSummary.from_dict(record["r"])
            except (ValueError, KeyError, TypeError):
                self.corrupt_lines += 1  # skipped; the unit reruns

    def _journal_unit(self, index: int, summary: TrialSummary) -> None:
        if index in self.completed:
            return
        self.completed[index] = summary
        append_jsonl_line(
            self._journal_path(),
            {
                "i": index,
                "k": self.manifest["unit_keys"][index],
                "s": CAMPAIGN_SCHEMA,
                "r": summary.to_dict(),
            },
        )

    def _write_checkpoint(self) -> None:
        _write_atomic(
            self.directory / "checkpoint.json",
            {
                "schema": CAMPAIGN_SCHEMA,
                "completed": len(self.completed),
                "total": len(self.configs),
            },
        )

    def status(self) -> CampaignStatus:
        return CampaignStatus(
            name=self.name,
            directory=str(self.directory),
            total=len(self.configs),
            completed=len(self.completed),
            corrupt_lines=self.corrupt_lines,
        )

    @property
    def events_path(self) -> Path:
        """The streamed progress feed (``events.jsonl``) in this ledger."""
        return self.directory / "events.jsonl"

    def make_aggregator(self, *, metrics=None, listener=None) -> ProgressAggregator:
        """A streaming sink wired to this ledger's ``events.jsonl`` feed.

        Pass the result as ``run(stream=...)``: worker heartbeats and
        completions then append to the feed live (``blackdp top`` tails
        it), publish ``exec.progress.*`` gauges into ``metrics`` when
        given, and invoke ``listener`` per event (the ``--watch``
        renderer).
        """
        return ProgressAggregator(
            total=len(self.configs),
            events_path=self.events_path,
            metrics=metrics,
            listener=listener,
        )

    def results(self) -> list[TrialSummary]:
        """All summaries in unit order; raises unless complete."""
        if len(self.completed) < len(self.configs):
            raise CampaignError(
                f"campaign {self.name!r} is incomplete "
                f"({len(self.completed)}/{len(self.configs)} units)"
            )
        return [self.completed[index] for index in range(len(self.configs))]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        *,
        jobs: int = 1,
        batch: int = DEFAULT_BATCH,
        executor: TrialExecutor | None = None,
        progress: Callable[[CampaignStatus], None] | None = None,
        stream: ProgressAggregator | None = None,
    ) -> CampaignStatus:
        """Run (or continue) the campaign until every unit is journaled.

        Work proceeds in batches of ``batch`` units; each batch is
        journaled and checkpointed before the next starts, so a kill
        costs at most one batch minus whatever the cache caught.  A
        SIGINT journals the drained partial batch, checkpoints, and
        re-raises as :class:`TrialRunInterrupted`.

        ``stream`` (see :meth:`make_aggregator`) turns on live
        telemetry: when no ``executor`` is supplied the one built here
        pushes per-unit worker events into it, and the campaign itself
        marks every journaled batch (and completion) in the feed.
        """
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        if executor is None:
            executor = TrialExecutor(
                jobs=jobs, cache_dir=self.cache_dir, progress=stream
            )

        def _mark(kind: str) -> None:
            if stream is not None:
                stream(
                    ProgressEvent(
                        kind=kind,
                        worker=os.getpid(),
                        wall=time.time(),
                        done=len(self.completed),
                        total=len(self.configs),
                    )
                )

        pending = [
            (index, config)
            for index, config in enumerate(self.configs)
            if index not in self.completed
        ]
        for start in range(0, len(pending), batch):
            slice_ = pending[start : start + batch]
            try:
                summaries = executor.run_trials(
                    [config for _, config in slice_]
                )
            except TrialRunInterrupted as interrupt:
                for (index, _), summary in zip(slice_, interrupt.results):
                    if summary is not None:
                        self._journal_unit(index, summary)
                self._write_checkpoint()
                _mark("batch")
                raise
            for (index, _), summary in zip(slice_, summaries):
                self._journal_unit(index, summary)
            self._write_checkpoint()
            _mark("batch")
            if progress is not None:
                progress(self.status())
        self._write_checkpoint()
        _mark("campaign-done")
        return self.status()
