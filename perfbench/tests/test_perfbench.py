"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
from tracer import SpanRecorder  # noqa: E402
from workloads import WORKLOADS, Table1Sweep, load_record  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_child_spans() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        wrapped_leaf()
        clock.advance(0.5)
        wrapped_leaf()

    def top():
        clock.advance(3.0)
        wrapped_middle()
        clock.advance(4.0)

    wrapped_leaf = recorder.wrap(leaf, "net", count="leaf.calls")
    wrapped_middle = recorder.wrap(middle, "routing")
    wrapped_top = recorder.wrap(top, "sim")

    wrapped_top()

    assert recorder.self_s["net"] == pytest.approx(4.0)
    assert recorder.self_s["routing"] == pytest.approx(1.5)  # 5.5 span - 4.0 children
    assert recorder.self_s["sim"] == pytest.approx(7.0)  # 12.5 span - 5.5 child
    assert sum(recorder.self_s.values()) == pytest.approx(clock.now)
    assert recorder.counts["leaf.calls"] == 2


def test_self_time_survives_an_exception() -> None:
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)

    def failing():
        clock.advance(1.0)
        raise ValueError("boom")

    def outer():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            wrapped_failing()

    wrapped_failing = recorder.wrap(failing, "inner")
    recorder.wrap(outer, "outer")()

    assert recorder.self_s == {"inner": 1.0, "outer": 2.0}
    assert recorder._stack == []


def test_patch_reaches_from_imports_and_subclass_overrides() -> None:
    defining = types.ModuleType("repro_fake_defining")
    exec("def work():\n    return 'done'\n", defining.__dict__)
    importing = types.ModuleType("repro_fake_importing")
    importing.work = defining.work  # as ``from repro_fake_defining import work``

    class Base:
        def handle(self):
            return "base"

    class Override(Base):
        def handle(self):
            return "override"

    sys.modules[defining.__name__] = defining
    sys.modules[importing.__name__] = importing
    recorder = SpanRecorder()
    try:
        assert recorder.patch_function(defining.__name__, "work", "layer", "calls") == 2
        assert recorder.patch_method(Base, "handle", "layer", "calls") == 2
        assert defining.work() == importing.work() == "done"
        assert Base().handle() == "base" and Override().handle() == "override"
        assert recorder.counts["calls"] == 4
    finally:
        recorder.restore()
        del sys.modules[defining.__name__], sys.modules[importing.__name__]
    assert importing.work is defining.work
    assert Base.__dict__["handle"].__name__ == "handle" and not hasattr(Base.handle, "__wrapped__")


def test_every_span_target_resolves() -> None:
    from layers import install_spans

    recorder = SpanRecorder()
    try:
        install_spans(recorder)
    finally:
        recorder.restore()


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def test_no_percentile_without_ten_samples_beyond() -> None:
    assert run.tail_percentile([float(x) for x in range(50)]) is None
    assert run.tail_percentile([1.0] * 500) is None  # nothing lies beyond
    value, beyond = run.tail_percentile([float(x) for x in range(100)])
    assert beyond == 10
    assert 89.0 < value < 90.0


def test_end_to_end_metrics_scale_by_speed_and_take_the_better_pass() -> None:
    def fake(cpu_s: float = 0.0, **report) -> run.Child:
        return run.Child(dict(report, peak_rss_kb=2048), wall_s=99.0, cpu_s=cpu_s, stderr="")

    probes = [
        fake(cpu_setup=0.3, speed_setup=1.0),
        fake(cpu_setup=1.0, speed_setup=2.0, cpu_first=1.8, speed_first=2.0),
        fake(cpu_setup=0.9, speed_setup=1.0),
    ]
    measured = dict(cpu_setup=0.4, speed_setup=1.0, cpu_first=0.7, speed_first=1.0)
    passes = [
        # 0.4 set-up + 0.3 + 0.6 units + 0.1 rest + 0.2 kernel samples
        fake(1.6, **measured, unit_s=[0.3, 0.6], unit_speed=[1.0, 2.0],
             speed_all=1.0, sample_cpu_s=0.2),
        fake(1.0, **measured, unit_s=[0.2, 0.3], unit_speed=[0.5, 1.0],
             speed_all=1.0, sample_cpu_s=0.0),
    ]
    unit_s = [min(pair) for pair in zip(*(run.scaled_units(child) for child in passes))]
    assert unit_s == pytest.approx([0.3, 0.3])
    metrics = run.end_to_end_metrics(passes, probes, unit_s)
    assert metrics["setup_s"] == pytest.approx(0.4)
    assert metrics["first_unit_s"] == pytest.approx(0.7)  # setup-only probes have none
    # pass 1: 0.4 + 0.3 + 0.3 + 0.1; pass 2: 0.4 + 0.4 + 0.3 + 0.1
    assert metrics["wall_s"] == pytest.approx(1.1)  # CPU time, not the 99 s elapsed
    assert metrics["units_per_s"] == pytest.approx(2 / 0.6)
    assert metrics["unit_p50_s"] == pytest.approx(0.3)
    assert metrics["peak_rss_mb"] == pytest.approx(2.0)


def test_speed_factor_tracks_a_slower_kernel() -> None:
    from speed import REFERENCE_S, SpeedSampler, kernel

    assert kernel() == kernel()
    sampler = SpeedSampler()
    sampler.samples = [(0.1, REFERENCE_S), (0.2, REFERENCE_S), (1.1, 2 * REFERENCE_S)]
    assert sampler.factor(until=1.0) == pytest.approx(1.0)
    assert sampler.factor(since=1.0) == pytest.approx(2.0)
    assert sampler.factor(since=5.0) is None
    sampler.start()
    try:
        deadline = time.thread_time() + 0.3
        while time.thread_time() < deadline:
            pass
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3 and sampler.spent > 0


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def table1_units():
    workload = Table1Sweep()
    workload.setup(ROOT)
    units = workload.units(seed=1, seconds=1.0)[:3]
    return workload, units


def test_tampered_record_fails_one_unit_without_aborting(table1_units) -> None:
    workload, units = table1_units
    record = load_record(workload.record)
    tampered = dict(record)
    key = units[1].key
    tampered[key] = dict(record[key], detected=not record[key]["detected"])

    summaries, problems, spans = child.run_units(workload, units, tampered)

    assert len(summaries) == len(spans) == 3
    assert all(summary is not None for summary in summaries)
    assert list(problems) == [1]
    assert "differs from the committed record" in problems[1][0]
    result = {
        "units": 3, "units_failed": len(problems), "run_problems": [],
        "trace": 0, "workload": workload.name, "metrics": {},
    }
    line = run.contract_line([result])
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 3, 1)


def test_unit_that_raises_is_counted_and_the_loop_goes_on(table1_units) -> None:
    workload, units = table1_units

    class Flaky(type(workload)):
        def run_unit(self, unit):
            if unit is units[0]:
                raise RuntimeError("injected")
            return super().run_unit(unit)

    flaky = Flaky()
    flaky.__dict__.update(workload.__dict__)
    summaries, problems, _ = child.run_units(flaky, units, load_record(workload.record))

    assert summaries[0] is None and summaries[1] is not None and summaries[2] is not None
    assert list(problems) == [0]
    assert "raised RuntimeError: injected" in problems[0][0]


def test_default_seed_units_match_the_record(table1_units) -> None:
    workload, units = table1_units
    record = load_record(workload.record)
    assert all(unit.key in record for unit in units)
    _, problems, _ = child.run_units(workload, units, record)
    assert problems == {}


# ----------------------------------------------------------------------
# Fresh children
# ----------------------------------------------------------------------
def test_each_workload_runs_in_a_fresh_child(tmp_path) -> None:
    deadline = time.monotonic() + 120
    warm = run.spawn("table1-sweep", 1, 1.0, tmp_path, deadline, limit=2)
    assert warm.report["sigcache"]["misses"] > 0  # the unit did warm the cache
    children = [warm] + [
        run.spawn(name, 1, 1.0, tmp_path, deadline, mode="setup") for name in WORKLOADS
    ]
    pids = {c.report["pid"] for c in children}
    assert len(pids) == len(children) and os.getpid() not in pids
    for fresh in children[1:]:
        assert fresh.report["sigcache_at_setup"] == {
            "hits": 0, "misses": 0, "invalidations": 0, "entries": 0,
        }


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the code
# ----------------------------------------------------------------------
def test_benchmark_json_lists_what_the_benchmark_prints() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_workload_inputs_depend_only_on_seed_and_seconds() -> None:
    from workloads import ArenaFlood, Table1Sweep

    arena = ArenaFlood()
    arena.setup(ROOT)
    assert arena.units(seed=1, seconds=16) == arena.units(seed=1, seconds=16)
    assert [u.detector for u in arena.units(seed=2, seconds=16)] == ["sketch", "dri"]
    assert len(arena.units(seed=2, seconds=600)) == 8
    table1 = Table1Sweep()
    table1.setup(ROOT)
    runs = [table1.units(seed=seed, seconds=16) for seed in range(1, 4)]
    assert {len(units) for units in runs} == {160}
    # Every seed runs the same Figure 4 points, one of them in the
    # renewal zone (8-10); the seed moves only the trial seeds.
    points = [[(u.config.attack, u.config.attacker_cluster) for u in units] for units in runs]
    assert points[0] == points[1] == points[2]
    assert any(cluster >= 8 for _attack, cluster in points[0])
    trial_seeds = [{u.config.seed for u in units} for units in runs]
    assert not (trial_seeds[0] & trial_seeds[1]) and not (trial_seeds[1] & trial_seeds[2])
