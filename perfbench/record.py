"""Regenerate the committed default-seed records under ``expected/``.

The records come from the program's own experiment functions called
directly, not from the benchmark's unit loop, so a benchmark run that
matches them shows the loop does not perturb what those functions
compute::

    python3 perfbench/record.py

``table1.json`` holds the trial summaries of ``run_figure4`` over the
default seed's Table I units, at the run length ``run_seconds`` in
``BENCHMARK.json``.  ``arena-flood.json`` holds ``run_matrix``'s flood
row (every detector in ``DEFAULT_DETECTORS``, one trial, base seed 1,
20 vehicles).  Unit keys come from the workloads themselves, so the
records always name units the way a benchmark run does.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (  # noqa: E402
    ARENA_ORDER,
    ARENA_UNIT_S,
    ARENA_VEHICLES,
    EXPECTED_DIR,
    TABLE1_ATTACKS,
    TABLE1_CLUSTERS,
    ArenaFlood,
    Table1Sweep,
    table1_trials,
)

DEFAULT_SEED = 1


def write_record(name: str, units: list, summaries: list) -> Path:
    from repro.experiments.executor import TrialSummary

    fields = [field.name for field in dataclasses.fields(TrialSummary)]
    payload = {
        "seed": DEFAULT_SEED,
        "fields": fields,
        "units": {
            unit.key: [summary.to_dict()[name] for name in fields]
            for unit, summary in zip(units, summaries, strict=True)
        },
    }
    path = EXPECTED_DIR / f"{name}.json"
    text = json.dumps(payload, separators=(",", ":"))
    path.write_text(text.replace('],"', '],\n"') + "\n")
    return path


def record_table1(seconds: float) -> Path:
    from repro.experiments.executor import TrialExecutor
    from repro.experiments.figure4 import run_figure4

    class KeepSummaries(TrialExecutor):
        def run_trials(self, configs):
            self.summaries = super().run_trials(configs)
            return self.summaries

    workload = Table1Sweep()
    workload.setup(HERE)
    units = workload.units(DEFAULT_SEED, seconds)
    executor = KeepSummaries()
    run_figure4(
        trials=table1_trials(seconds),
        attacks=TABLE1_ATTACKS,
        clusters=TABLE1_CLUSTERS,
        base_seed=units[0].base_seed,
        parallel=executor,
    )
    for unit, summary in zip(units, executor.summaries, strict=True):
        config = unit.config
        if (summary.attack, summary.attacker_cluster, summary.seed) != (
            config.attack, config.attacker_cluster, config.seed,
        ):
            raise RuntimeError(f"run_figure4 ran another trial than unit {unit.key}")
    return write_record("table1", units, executor.summaries)


def record_arena() -> Path:
    from repro.arena import run_matrix

    workload = ArenaFlood()
    workload.setup(HERE)
    units = workload.units(DEFAULT_SEED, len(ARENA_ORDER) * ARENA_UNIT_S)
    ledger = Path(tempfile.mkdtemp(prefix="record-ledger-", dir=HERE))
    try:
        campaign, _cells = run_matrix(
            ledger,
            attacks=("flood",),
            detectors=tuple(unit.detector for unit in units),
            trials=1,
            base_seed=DEFAULT_SEED,
            num_vehicles=ARENA_VEHICLES,
        )
        summaries = campaign.results()
    finally:
        shutil.rmtree(ledger, ignore_errors=True)
    for unit, summary in zip(units, summaries, strict=True):
        if summary.detector != unit.detector:
            raise RuntimeError(f"run_matrix ran another cell than unit {unit.key}")
    return write_record("arena-flood", units, summaries)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print(f"wrote {record_table1(spec['run_seconds'])}")
    print(f"wrote {record_arena()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
