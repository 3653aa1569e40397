"""The benchmark's workloads: inputs from a seed, one unit at a time, checks.

A workload turns ``(seed, seconds)`` into a list of units, runs one unit
through the program's public experiment functions, and checks each unit's
:class:`~repro.experiments.executor.TrialSummary`.  The amount of work
is fixed by ``seconds`` alone (through a nominal per-unit cost), never
by how fast the host runs, so two versions of the program always do
identical work and their timings compare directly.

The program is imported in :meth:`Workload.setup`, not at module level:
the parent process imports this module for names and sizes only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

#: Nominal host seconds per unit, used only to size a run from
#: ``--seconds``.  The Table I figure is a telemetry unit's cost, the
#: dearer of the two workloads that share one unit list; the flood
#: figure is one flood trial's.  Both are for a 2-core x86-64 box with
#: Python 3.11; other tenants' load moves them by up to about 40 %.
TABLE1_UNIT_S = 0.1
ARENA_UNIT_S = 9.0

#: The Figure 4 points a Table I run covers: both attack types at one
#: cluster outside the renewal zone and one inside it (8-10), where
#: ``check_expected_shape`` requires accuracy to drop.  The points are the
#: same at every seed, so every seed does the same kind of work; the seed
#: moves only the trial seeds.  Few points give each point many trials
#: at a run's cost, and the shape check's 0.95 accuracy floor needs
#: them: at 20 trials two prevention-only trials at one point already
#: fail it, at 40 or more it takes three.
TABLE1_ATTACKS = ("single", "cooperative")
TABLE1_CLUSTERS = (3, 8)

#: Arena world size: the repo-wide fast-trial convention.
ARENA_VEHICLES = 20

#: Flood-row pins from ``BENCH_arena.json``: of the default roster only
#: the sketch monitor convicts a flooder.
FLOOD_CONVICTING = frozenset({"sketch"})

#: The flood row's detectors in the order a run takes them: the one
#: convicting cell, then DRI (the costliest arena-adapter tap), then the
#: rest of ``repro.arena.DEFAULT_DETECTORS``.  A default-length run
#: takes the first two, so it covers both kinds of tap (sketch monitor,
#: arena adapter) and the conviction path.
ARENA_ORDER = ("sketch", "dri", "examiner", "sequence", "peak", "static", "trust", "naive")


@dataclasses.dataclass(frozen=True)
class Unit:
    """One work unit; ``key`` names it in the committed record."""

    key: str
    config: object = None
    detector: str = ""
    base_seed: int = 0


def table1_trials(seconds: float) -> int:
    """Trials per Figure 4 point for a run of about ``seconds``."""
    points = len(TABLE1_ATTACKS) * len(TABLE1_CLUSTERS)
    return max(1, round(seconds / (TABLE1_UNIT_S * points)))


def summary_digest(summaries: list[dict | None]) -> str:
    """Stable digest of summary dicts (None for a unit that raised)."""
    blob = json.dumps(summaries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_record(name: str) -> dict:
    """``{unit key: summary dict}`` committed for the default seed."""
    path = EXPECTED_DIR / f"{name}.json"
    payload = json.loads(path.read_text())
    fields = payload["fields"]
    return {key: dict(zip(fields, values)) for key, values in payload["units"].items()}


class Workload:
    """Base class: subclasses set the names and implement the unit hooks."""

    name = ""
    why = ""
    #: expected-record file stem under ``expected/``
    record = ""
    #: whether set-up probes also run the first unit: cheap units give
    #: ``first_unit_s`` more cold samples; a 9 s unit is its own average
    probe_first_unit = True

    def setup(self, scratch: Path) -> None:
        """Import the program; ``scratch`` is a writable directory."""
        raise NotImplementedError

    def units(self, seed: int, seconds: float) -> list[Unit]:
        raise NotImplementedError

    def run_unit(self, unit: Unit):
        """Run one unit; returns ``(summary, problems)``."""
        raise NotImplementedError

    def check_unit(self, unit: Unit, summary) -> list[str]:
        """Claims one unit's summary must meet."""
        return []

    def check_run(self, units: list[Unit], summaries: list) -> dict[int, list[str]]:
        """Claims over the whole run, as problems per unit index."""
        return {}


class Table1Sweep(Workload):
    """Figure 4 slice through ``figure4_configs`` and the serial executor."""

    name = "table1-sweep"
    why = (
        "Figure 4 slice at Table I density, obs off: many ~60 ms units dominated "
        "by world build, TA enrolment, AODV discovery and BlackDP verification"
    )
    record = "table1"

    def setup(self, scratch: Path) -> None:
        # Modules, not functions: attributes are looked up at call time,
        # so spans patched in after set-up still see every call.
        from repro.experiments import executor, figure4

        self._executor_module = executor
        self._figure4 = figure4
        # One serial executor for the run, as run_figure4 builds one.
        self._executor = executor.TrialExecutor(jobs=1)

    def units(self, seed: int, seconds: float) -> list[Unit]:
        self._trials = table1_trials(seconds)
        base_seed = 1000 * seed
        configs = self._figure4.figure4_configs(
            trials=self._trials,
            attacks=TABLE1_ATTACKS,
            clusters=TABLE1_CLUSTERS,
            base_seed=base_seed,
        )
        return [
            Unit(key=f"{c.attack}|{c.attacker_cluster}|{c.seed}", config=c, base_seed=base_seed)
            for c in configs
        ]

    def run_unit(self, unit: Unit):
        (summary,) = self._executor.run_trials([unit.config])
        return summary, []

    def check_unit(self, unit: Unit, summary) -> list[str]:
        if summary.false_positive or summary.convicted_honest:
            return [f"{unit.key}: honest vehicle convicted"]
        return []

    def check_run(self, units: list[Unit], summaries: list) -> dict[int, list[str]]:
        """``check_expected_shape`` on each point's row; a violation
        fails every unit of that point."""
        trials = self._trials
        problems: dict[int, list[str]] = {}
        for start in range(0, len(units), trials):
            chunk = summaries[start : start + trials]
            if len(chunk) < trials or any(s is None for s in chunk):
                continue  # a unit of this point already failed on its own
            config = units[start].config
            (row,) = self._figure4.figure4_rows(
                chunk,
                trials=trials,
                attacks=(config.attack,),
                clusters=(config.attacker_cluster,),
            )
            for violation in self._figure4.check_expected_shape([row]):
                for index in range(start, start + trials):
                    problems.setdefault(index, []).append(violation)
        return problems


class Table1Telemetry(Table1Sweep):
    """The same units with the metrics registry and 1 s sampler on."""

    name = "table1-telemetry"
    why = (
        "table1-sweep's units and seeds with metrics and the 1 s sampler on, as "
        "blackdp trial --metrics --sample-interval 1 runs: the only obs.metrics load"
    )

    def setup(self, scratch: Path) -> None:
        super().setup(scratch)
        from repro.experiments import trial

        self._trial = trial

    def run_unit(self, unit: Unit):
        config = dataclasses.replace(unit.config, metrics=True, sample_interval=1.0)
        result = self._trial.run_trial(config)
        problems = []
        if not result.metrics:
            problems.append(f"{unit.key}: metrics registry recorded nothing")
        if not result.series_times:
            problems.append(f"{unit.key}: sampler took no samples")
        return self._executor_module.summarize_trial(config, result), problems


class ArenaFlood(Workload):
    """The arena matrix's flood row through ``run_matrix``."""

    name = "arena-flood"
    why = (
        "arena flood row, 20 vehicles, trace and byte accounting on: few ~9 s units "
        "dominated by the sim loop, radio fan-out, codec, trace and sketch taps"
    )
    record = "arena-flood"
    probe_first_unit = False

    def setup(self, scratch: Path) -> None:
        import repro.arena

        if set(ARENA_ORDER) != set(repro.arena.DEFAULT_DETECTORS):
            raise ValueError("ARENA_ORDER no longer matches DEFAULT_DETECTORS")
        self._arena = repro.arena
        self._scratch = scratch

    def units(self, seed: int, seconds: float) -> list[Unit]:
        """The first ``seconds / ARENA_UNIT_S`` detectors of ``ARENA_ORDER``.

        The set does not rotate with the seed: detectors differ in cost,
        and a rotating set would make that difference read as noise.
        """
        count = min(len(ARENA_ORDER), max(1, round(seconds / ARENA_UNIT_S)))
        return [
            Unit(key=f"flood|{detector}|{seed}", detector=detector, base_seed=seed)
            for detector in ARENA_ORDER[:count]
        ]

    def run_unit(self, unit: Unit):
        # A fresh campaign ledger per unit, as a new `blackdp arena --dir`.
        ledger = Path(tempfile.mkdtemp(prefix="ledger-", dir=self._scratch))
        campaign, _cells = self._arena.run_matrix(
            ledger,
            attacks=("flood",),
            detectors=(unit.detector,),
            trials=1,
            base_seed=unit.base_seed,
            num_vehicles=ARENA_VEHICLES,
            jobs=1,
        )
        (summary,) = campaign.results()
        return summary, []

    def check_unit(self, unit: Unit, summary) -> list[str]:
        problems = []
        if summary.false_positive or summary.convicted_honest:
            problems.append(f"{unit.key}: honest vehicle convicted")
        should_convict = unit.detector in FLOOD_CONVICTING
        if summary.detected != should_convict:
            problems.append(
                f"{unit.key}: detected={summary.detected}, but the flood-row pins "
                f"expect {should_convict}"
            )
        return problems


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Table1Sweep, Table1Telemetry, ArenaFlood)
}
