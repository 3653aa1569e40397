"""End-to-end benchmark of the BlackDP reproduction.

Runs one workload (or ``all``) and prints its metrics by name and unit,
then, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-sweep --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload arena-flood --seed 2 --seconds 16 --trace 1

Every child is a fresh interpreter, so no warm cache crosses from one
workload (or one measurement) to the next:

- ``--trace 0``: two measured children over the same units, each
  after three cold-start probe children.  Times are process CPU
  seconds, not elapsed time.  Unit and whole-child times are the better
  of the two passes, cold-start times the median over all children,
  and the passes must agree on every summary and protocol count.
- ``--trace 1``: a child with the layer spans patched in, run under
  ``-X importtime``, then an untraced child over the same units; the
  ratio of their elapsed times is the tracing overhead, and their
  summaries and protocol counters must agree.

Each run's full report also goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from layers import SELF_TIME_METRICS, layer_metrics_template  # noqa: E402
from workloads import WORKLOADS, summary_digest  # noqa: E402

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "first_unit_s": "s",
    "units_per_s": "1/s",
    "unit_p50_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) besides the span totals: name -> unit.
TRACE_ACCOUNTING = {
    "import.repro_s": "s",
    "import.third_party_s": "s",
    "import.other_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage": "ratio",
    "trace.unattributed_s": "s",
}

#: Protocol counts a pure speed-up must leave identical.
PROTOCOL_COUNTS = (
    "net.transmissions",
    "net.deliveries",
    "net.bytes",
    "obs.trace_recorded",
    "routing.rreq_rebroadcasts",
)
#: Engine counts: printed, never gated (event batching may move them).
ENGINE_COUNTS = ("sim.events", "sim.queue_high_water", "sim.pool_reused")

THIRD_PARTY = ("networkx", "numpy")
#: Cold-start probe children before each of the two measured passes.
PROBES_PER_PASS = 3
#: The whole command must finish within this many seconds.
BUDGET_S = 170.0


class BenchError(RuntimeError):
    """A child failed to run or report; no result is printed."""


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(samples: list[float]) -> tuple[float, int] | None:
    """The 90th percentile and the number of samples above it, or None
    when fewer than ten samples lie beyond it."""
    if len(samples) < 2:
        return None
    value = statistics.quantiles(samples, n=10, method="inclusive")[-1]
    beyond = sum(1 for sample in samples if sample > value)
    return (value, beyond) if beyond >= 10 else None


def parse_importtime(stderr: str) -> dict[str, float]:
    """Sum ``-X importtime`` self times by top-level package group."""
    totals = {"import.repro_s": 0.0, "import.third_party_s": 0.0, "import.other_s": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        try:
            self_us, _cumulative, name = line[len("import time:") :].split("|")
            seconds = int(self_us) / 1e6
        except ValueError:
            continue
        package = name.strip().split(".")[0]
        if package == "repro":
            totals["import.repro_s"] += seconds
        elif package in THIRD_PARTY:
            totals["import.third_party_s"] += seconds
        else:
            totals["import.other_s"] += seconds
    return totals


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
class Child:
    """One finished child: its report, its wall time as the parent saw
    it, and the CPU time it used from start to exit."""

    def __init__(self, report: dict, wall_s: float, cpu_s: float, stderr: str):
        self.report = report
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.stderr = stderr


def children_cpu_s() -> float:
    """User plus system CPU seconds of every child reaped so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    scratch: Path,
    deadline: float,
    *,
    mode: str = "run",
    trace: int = 0,
    limit: int = 0,
) -> Child:
    command = [sys.executable]
    if trace:
        command += ["-X", "importtime"]
    command += [
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--mode", mode,
        "--limit", str(limit),
        "--scratch", str(scratch),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the next child")
    spawned = time.monotonic()
    cpu_before = children_cpu_s()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} child exceeded the time budget") from error
    wall_s = time.monotonic() - spawned
    cpu_s = children_cpu_s() - cpu_before
    if done.returncode != 0:
        raise BenchError(
            f"{workload} child exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} child printed no report")
    return Child(json.loads(lines[-1]), wall_s, cpu_s, done.stderr)


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def failed_units(child: Child) -> dict[int, list[str]]:
    return {int(index): found for index, found in child.report["problems"].items()}


def compare_runs(
    first: Child, second: Child, problems: dict[int, list[str]], run_problems: list[str]
) -> None:
    """Two children over the same units must agree unit by unit and on
    every protocol count."""
    keys = first.report["units"]
    for index, summary in enumerate(second.report["summaries"]):
        if summary != first.report["summaries"][index]:
            problems.setdefault(index, []).append(
                f"{keys[index]}: a second run at the same seed gave another summary"
            )
    for counter in PROTOCOL_COUNTS:
        if first.report["counters"][counter] != second.report["counters"][counter]:
            run_problems.append(f"{counter} differs between two runs of the same units")


def simulated_stats(child: Child) -> dict[str, object]:
    report = child.report
    stats: dict[str, object] = {name: report["counters"][name] for name in PROTOCOL_COUNTS}
    stats["core.convictions"] = report["convictions"]
    stats["summary_digest"] = summary_digest(report["summaries"])
    for name in ENGINE_COUNTS:
        stats[name] = report["counters"][name]
    return stats


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    workload = WORKLOADS[name]
    scratch = OUT / f"scratch-{name}-{seed}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(workload, seed, seconds, trace, deadline, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_workload(workload, seed, seconds, trace, deadline, scratch) -> dict:
    name = workload.name
    run = functools.partial(spawn, name, seed, seconds, scratch, deadline)
    run_problems: list[str] = []
    if trace:
        main = run(trace=1)
        control = run()
        problems = failed_units(main)
        compare_runs(main, control, problems, run_problems)
        layers = dict(main.report["layers"])
        layers.update(parse_importtime(main.stderr))
        attributed = sum(layers[key] for key in SELF_TIME_METRICS.values()) + sum(
            layers[key] for key in ("import.repro_s", "import.third_party_s", "import.other_s")
        )
        layers["trace.overhead_ratio"] = main.wall_s / control.wall_s
        layers["trace.coverage"] = attributed / main.wall_s
        layers["trace.unattributed_s"] = main.wall_s - attributed
        metrics = {key: layers[key] for key in per_layer_units()}
        unit_s = main.report["unit_s"]
        speeds = {}
    else:
        # Two passes over the same units, each after cold-start probes:
        # host contention comes in bursts of seconds, so this spreads the
        # samples over the run, and the cold-start medians get 8 samples.
        probes, passes = [], []
        for _ in range(2):
            for _ in range(PROBES_PER_PASS):
                probes.append(
                    run(limit=1) if workload.probe_first_unit else run(mode="setup")
                )
            passes.append(run())
        main, second = passes
        problems = failed_units(main)
        for index, found in failed_units(second).items():
            problems.setdefault(index, []).extend(found)
        compare_runs(main, second, problems, run_problems)
        unit_s = [min(pair) for pair in zip(scaled_units(main), scaled_units(second))]
        metrics = end_to_end_metrics(passes, probes, unit_s)
        speeds = {
            "setup": [child.report["speed_setup"] for child in probes + passes],
            "run": [child.report["speed_all"] for child in passes],
        }

    units = len(main.report["units"])
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "units": units,
        "units_failed": len(problems),
        "recorded_units": main.report["recorded_units"],
        "problems": {str(k): v for k, v in sorted(problems.items())},
        "run_problems": run_problems,
        "simulated": simulated_stats(main),
        "metrics": metrics,
        "unit_p90": tail_percentile(unit_s),
        "speed_factors": speeds,
        "unit_s": dict(zip(main.report["units"], unit_s)),
    }
    if trace:
        result["per_layer_units"] = per_layer_units()
    return result


def scaled_units(child: Child) -> list[float]:
    """A measured child's unit CPU times, each divided by its own speed factor."""
    return [
        seconds / factor
        for seconds, factor in zip(child.report["unit_s"], child.report["unit_speed"])
    ]


def scaled_total(child: Child) -> float:
    """A measured child's whole CPU time, less the kernel samples, scaled
    piecewise: set-up and each unit by their own speed factors, the rest
    (loop bookkeeping, other threads, exit) by the whole run's."""
    report = child.report
    rest = child.cpu_s - report["sample_cpu_s"] - report["cpu_setup"] - sum(report["unit_s"])
    return (
        report["cpu_setup"] / report["speed_setup"]
        + sum(scaled_units(child))
        + max(rest, 0.0) / report["speed_all"]
    )


def end_to_end_metrics(
    passes: list[Child], probes: list[Child], unit_s: list[float]
) -> dict[str, float]:
    """Every time is CPU time from the child's start, divided by the
    speed factor of the same interval (``speed.py``).  Cold-start times
    are medians over every child that reached them.  Contention only
    ever adds time, so unit and whole-child times are the better of the
    two passes; ``unit_s`` is already scaled and reduced that way."""
    cold = probes + passes
    return {
        "setup_s": statistics.median(
            child.report["cpu_setup"] / child.report["speed_setup"] for child in cold
        ),
        "first_unit_s": statistics.median(
            child.report["cpu_first"] / child.report["speed_first"]
            for child in cold
            if "cpu_first" in child.report
        ),
        "units_per_s": len(unit_s) / sum(unit_s),
        "unit_p50_s": statistics.median(unit_s),
        "wall_s": min(scaled_total(child) for child in passes),
        "peak_rss_mb": max(child.report["peak_rss_kb"] for child in passes) / 1024.0,
    }


def per_layer_units() -> dict[str, str]:
    """Every ``--trace 1`` metric name with its unit, in print order."""
    units = {name: unit for name, (_value, unit) in layer_metrics_template().items()}
    units.update(TRACE_ACCOUNTING)
    return units


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def print_report(result: dict) -> None:
    units = END_TO_END if not result["trace"] else result["per_layer_units"]
    print(
        f"== {result['workload']} seed {result['seed']} "
        f"({'traced' if result['trace'] else 'untraced'}): "
        f"{result['units']} units, units_failed {result['units_failed']} "
        f"of {result['units']}, {result['recorded_units']} checked against the record"
    )
    for name, value in result["metrics"].items():
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    if not result["trace"]:
        p90 = result["unit_p90"]
        if p90 is None:
            print(
                f"  {'unit_p90_s':<28} {'n/a':>14} s  (n={result['units']}: "
                "fewer than 10 samples beyond p90)"
            )
        else:
            print(f"  {'unit_p90_s':<28} {p90[0]:>14.6g} s  (n={result['units']}, {p90[1]} beyond)")
    print("  simulated: " + ", ".join(f"{k}={v}" for k, v in result["simulated"].items()))
    for interval, factors in result["speed_factors"].items():
        shown = ", ".join(f"{factor:.3f}" for factor in factors)
        print(f"  speed factors, {interval} (per child): {shown}")
    shown = 0
    for index, found in result["problems"].items():
        for problem in found:
            if shown < 20:
                print(f"  FAIL unit {index}: {problem}")
            shown += 1
    for problem in result["run_problems"]:
        print(f"  FAIL {problem}")


def contract_line(results: list[dict]) -> dict:
    attempted = sum(r["units"] for r in results)
    failed = sum(r["units_failed"] for r in results)
    correct = failed == 0 and not any(r["run_problems"] for r in results)
    metrics = {}
    for result in results:
        units = END_TO_END if not result["trace"] else result["per_layer_units"]
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = []
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print_report(result)
            OUT.mkdir(parents=True, exist_ok=True)
            path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(result, indent=1) + "\n")
            results.append(result)
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    print(json.dumps(contract_line(results)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
