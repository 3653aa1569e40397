"""Tests for the RSU compute model and the congestion experiment."""

import pytest

from repro.core.processing import RsuProcessor
from repro.sim import Simulator


def test_single_operation_costs_service_time():
    sim = Simulator()
    processor = RsuProcessor(sim, service_time=0.01)
    done = []
    processor.submit(lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.01)]
    assert processor.stats.processed_locally == 1
    assert processor.stats.mean_wait == pytest.approx(0.01)


def test_queueing_serialises_work():
    sim = Simulator()
    processor = RsuProcessor(sim, service_time=0.01)
    done = []
    for _ in range(5):
        processor.submit(lambda: done.append(sim.now))
    sim.run()
    assert done == [pytest.approx(0.01 * (i + 1)) for i in range(5)]
    assert processor.stats.max_queue == 5
    assert processor.stats.max_wait == pytest.approx(0.05)


def test_queue_drains_between_bursts():
    sim = Simulator()
    processor = RsuProcessor(sim, service_time=0.01)
    done = []
    processor.submit(lambda: done.append(sim.now))
    sim.run()
    assert processor.queue_depth == 0
    processor.submit(lambda: done.append(sim.now))
    sim.run()
    # The second op starts fresh, not behind the finished first one.
    assert done[1] == pytest.approx(done[0] + 0.01)


def test_fog_offload_kicks_in_at_threshold():
    sim = Simulator()
    processor = RsuProcessor(
        sim, service_time=0.01, fog_enabled=True, fog_latency=0.02,
        offload_threshold=2,
    )
    done = []
    for index in range(6):
        processor.submit(lambda i=index: done.append((i, sim.now)))
    sim.run()
    assert processor.stats.processed_locally == 2
    assert processor.stats.offloaded == 4
    # Local work serialises (0.01, 0.02); offloaded work all completes at
    # the flat fog latency (0.02).
    times = sorted(t for _i, t in done)
    assert times == [pytest.approx(0.01)] + [pytest.approx(0.02)] * 5


def test_without_fog_nothing_offloads():
    sim = Simulator()
    processor = RsuProcessor(sim, service_time=0.01, fog_enabled=False)
    for _ in range(10):
        processor.submit(lambda: None)
    sim.run()
    assert processor.stats.offloaded == 0
    assert processor.stats.processed_locally == 10


def test_processor_validation():
    sim = Simulator()
    with pytest.raises(ValueError):
        RsuProcessor(sim, service_time=0.0)
    with pytest.raises(ValueError):
        RsuProcessor(sim, offload_threshold=0)


def test_detection_still_correct_under_processing_delay():
    """The compute model delays detection but never changes verdicts or
    Figure 5 packet counts."""
    from repro.core.processing import RsuProcessor as Processor
    from repro.experiments.world import build_world
    from tests.test_core_detection import report_suspect

    world = build_world(seed=31)
    service = world.service_for_cluster(3)
    service.processor = Processor(world.sim, service_time=0.05)
    reporter = world.add_vehicle("rep", x=2200.0)
    attacker = world.add_attacker("bh", x=2700.0)
    world.sim.run(until=0.5)
    reported_at = world.sim.now
    report_suspect(world, reporter, attacker.address, 3, attacker.certificate)
    world.sim.run(until=world.sim.now + 30.0)
    records = service.records
    assert len(records) == 1
    assert records[0].verdict == "black-hole"
    assert records[0].packets == 6
    # End-to-end latency includes the authentication-processing delay.
    assert records[0].finished_at - reported_at >= 0.05


def test_congestion_sweep_shape():
    from repro.experiments.congestion import run_congestion_sweep

    rows = run_congestion_sweep(bursts=(1, 5, 10, 15, 30))
    cells = {(row.fog, row.reports): row for row in rows}
    # Without fog, a 10-report burst is clearly slower than a single one.
    assert cells[(False, 10)].mean_latency > cells[(False, 1)].mean_latency * 2
    # With fog, the burst barely moves the mean.
    assert cells[(True, 10)].mean_latency < cells[(False, 10)].mean_latency
    assert cells[(True, 10)].offloaded > 0
    assert cells[(True, 10)].max_queue <= 4
    # Latency grows monotonically with the burst on the RSU's one core,
    # and plateaus once overflow authentication moves to the fog node.
    latency = {key: row.mean_latency for key, row in cells.items()}
    assert latency[(False, 30)] > latency[(False, 15)] > latency[(False, 5)]
    assert latency[(True, 30)] < latency[(False, 30)] / 2
    assert latency[(True, 30)] < latency[(True, 5)] * 2
