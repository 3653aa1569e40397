"""One workload in one fresh process; prints one JSON line and exits.

Started by ``run.py`` from the root of a checkout.  It imports the
program from ``src/``, builds the workload's units from the seed, runs
them back to back (one client, closed loop, ``jobs=1``), checks each
unit's summary, and reports its CPU clock at set-up and at the first
checked result, per-unit CPU times, summaries, problems and protocol
counters.  Times are the main thread's CPU seconds, which count from
the process's start and, unlike wall time, do not grow while other
tenants of the host hold the CPU.  An untraced child also samples the
reference kernel of ``speed.py`` throughout, reports the speed factors
of set-up, of set-up plus the first unit, of each unit (with
``WINDOW_S`` either side) and of the whole run, and leaves the samples'
own cost out of every time.  ``--trace 1`` instead patches the layer spans in before
the first unit and reports their totals.

Modes: ``run`` (the default) runs the units; ``setup`` stops once the
program is imported and the inputs are generated.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_units(workload, units, record: dict, probe=None, clock=time.thread_time):
    """Run ``units`` back to back, checking each as it finishes.

    A unit that raises, fails a claim, or differs from its ``record``
    entry is a failed unit; the loop always goes on to the next one.
    Returns ``(summaries, problems by unit index, spans)``, where each
    unit's span is ``clock()`` at its start and once its check finished.
    """
    summaries: list = []
    problems: dict[int, list[str]] = {}
    spans: list[tuple[float, float]] = []
    for index, unit in enumerate(units):
        started = clock()
        try:
            summary, found = workload.run_unit(unit)
            found = found + workload.check_unit(unit, summary)
            expected = record.get(unit.key)
            if expected is not None and summary.to_dict() != expected:
                found.append(f"{unit.key}: summary differs from the committed record")
        except Exception as error:  # a unit that raises is a failed unit
            summary, found = None, [f"{unit.key}: raised {type(error).__name__}: {error}"]
        spans.append((started, clock()))
        if probe is not None:
            probe.collect()
        summaries.append(summary)
        if found:
            problems[index] = found
    for index, found in workload.check_run(units, summaries).items():
        problems.setdefault(index, []).extend(found)
    return summaries, problems, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument("--limit", type=int, default=0, help="run only the first N units")
    parser.add_argument("--scratch", type=Path, required=True)
    args = parser.parse_args(argv)

    from speed import WINDOW_S, SpeedSampler

    sampler = SpeedSampler()
    if not args.trace:
        sampler.start()
    clock = sampler.clock

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, load_record

    workload = WORKLOADS[args.workload]()
    workload.setup(args.scratch)
    from repro.crypto import signature_cache

    units = workload.units(args.seed, args.seconds)
    if args.limit:
        units = units[: args.limit]
    cpu_setup = clock()
    report = {
        "pid": os.getpid(),
        "cpu_setup": cpu_setup,
        "speed_setup": sampler.factor(until=cpu_setup),
        "units": [unit.key for unit in units],
        "sigcache_at_setup": signature_cache.stats(),
    }
    if args.mode == "setup":
        sampler.stop()
        print(json.dumps(report))
        return 0

    from layers import WorldProbe, install_spans, layer_metrics
    from tracer import SpanRecorder

    record = load_record(workload.record)
    recorder = SpanRecorder()
    probe = WorldProbe()
    probe.install(recorder)
    if args.trace:
        install_spans(recorder)

    summaries, problems, spans = run_units(workload, units, record, probe, clock)
    sampler.stop()
    cpu_first = spans[0][1]

    convictions = sum(
        s.convicted_attackers + s.convicted_honest for s in summaries if s is not None
    )
    report.update(
        cpu_first=cpu_first,
        speed_first=sampler.factor(until=cpu_first),
        unit_s=[finished - started for started, finished in spans],
        unit_speed=[
            sampler.factor(started - WINDOW_S, finished + WINDOW_S)
            for started, finished in spans
        ],
        speed_all=sampler.factor(),
        sample_cpu_s=sampler.spent,
        summaries=[None if s is None else s.to_dict() for s in summaries],
        problems={str(index): found for index, found in sorted(problems.items())},
        counters=probe.totals,
        convictions=convictions,
        sigcache=signature_cache.stats(),
        recorded_units=sum(unit.key in record for unit in units),
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if args.trace:
        report["layers"] = {
            name: value
            for name, (value, _unit) in layer_metrics(
                recorder, probe.totals, report["sigcache"], convictions
            ).items()
        }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
