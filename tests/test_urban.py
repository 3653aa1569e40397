"""Tests for the urban-topology extension: grid geometry, Manhattan
mobility, Voronoi coverage and end-to-end detection on a grid."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters.coverage import GridCoverage, HighwayCoverage
from repro.mobility import Highway
from repro.mobility.urban import ManhattanMotion, UrbanGrid


# ----------------------------------------------------------------------
# Grid geometry
# ----------------------------------------------------------------------
def test_grid_dimensions_and_intersections():
    grid = UrbanGrid(blocks_x=3, blocks_y=2, block_length=100.0)
    assert grid.width == 300.0
    assert grid.height == 200.0
    points = grid.intersections()
    assert len(points) == 4 * 3
    assert (0.0, 0.0) in points
    assert (300.0, 200.0) in points


def test_grid_validation():
    with pytest.raises(ValueError):
        UrbanGrid(blocks_x=0)
    with pytest.raises(ValueError):
        UrbanGrid(block_length=0.0)
    with pytest.raises(ValueError):
        UrbanGrid().intersection(99, 0)


def test_is_on_street():
    grid = UrbanGrid(blocks_x=2, blocks_y=2, block_length=100.0)
    assert grid.is_on_street((100.0, 37.0))  # on a vertical street
    assert grid.is_on_street((55.0, 200.0))  # on a horizontal street
    assert not grid.is_on_street((55.0, 37.0))  # mid-block
    assert not grid.is_on_street((999.0, 0.0))  # off the grid


def test_nearest_intersection_clamps():
    grid = UrbanGrid(blocks_x=2, blocks_y=2, block_length=100.0)
    assert grid.nearest_intersection((140.0, 160.0)) == (1, 2)
    assert grid.nearest_intersection((-50.0, 500.0)) == (0, 2)


def test_intersection_neighbors():
    grid = UrbanGrid(blocks_x=2, blocks_y=2)
    assert sorted(grid.neighbors_of_intersection(0, 0)) == [(0, 1), (1, 0)]
    assert len(grid.neighbors_of_intersection(1, 1)) == 4


# ----------------------------------------------------------------------
# Manhattan mobility
# ----------------------------------------------------------------------
def test_manhattan_motion_stays_on_streets():
    grid = UrbanGrid(blocks_x=4, blocks_y=4, block_length=100.0)
    motion = ManhattanMotion(
        grid, random.Random(1), entry_time=0.0, start=(2, 2), speed=10.0,
        duration=120.0,
    )
    for step in range(0, 120):
        position = motion.position(float(step))
        assert grid.is_on_street(position, tolerance=1e-6)


def test_manhattan_motion_constant_speed_until_parked():
    grid = UrbanGrid(blocks_x=4, blocks_y=4, block_length=100.0)
    motion = ManhattanMotion(
        grid, random.Random(2), entry_time=5.0, start=(0, 0), speed=10.0,
        duration=50.0,
    )
    assert motion.speed_at(10.0) == 10.0
    assert motion.speed_at(motion.exit_time + 1.0) == 0.0
    # Parked exactly at the final waypoint afterwards.
    assert motion.position(motion.exit_time + 100.0) == motion.legs[-1].end


def test_manhattan_motion_is_deterministic():
    grid = UrbanGrid()
    a = ManhattanMotion(grid, random.Random(7), entry_time=0.0, start=(1, 1),
                        speed=10.0)
    b = ManhattanMotion(grid, random.Random(7), entry_time=0.0, start=(1, 1),
                        speed=10.0)
    assert a.position(123.4) == b.position(123.4)


def test_manhattan_motion_rejects_bad_speed():
    with pytest.raises(ValueError):
        ManhattanMotion(UrbanGrid(), random.Random(0), entry_time=0.0,
                        start=(0, 0), speed=0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 1000), t=st.floats(0, 300, allow_nan=False))
def test_manhattan_positions_always_inside_grid(seed, t):
    grid = UrbanGrid(blocks_x=3, blocks_y=3, block_length=150.0)
    motion = ManhattanMotion(grid, random.Random(seed), entry_time=0.0,
                             start=(1, 1), speed=12.0, duration=300.0)
    assert grid.contains(motion.position(t))


# ----------------------------------------------------------------------
# Coverage strategies
# ----------------------------------------------------------------------
def test_highway_coverage_matches_highway_math():
    hw = Highway()
    coverage = HighwayCoverage(hw)
    assert coverage.num_clusters == 10
    assert coverage.cluster_at((2500.0, 50.0)) == 3
    assert coverage.cluster_at((-5.0, 0.0)) is None
    assert coverage.rsu_position(1) == (500.0, 100.0)
    assert coverage.chase_target(3, +1) == 4
    assert coverage.chase_target(10, +1) is None
    assert coverage.chase_target(1, -1) is None


def test_grid_coverage_nearest_rsu():
    grid = UrbanGrid(blocks_x=4, blocks_y=4, block_length=400.0)
    coverage = GridCoverage(grid, [(0, 0), (4, 4)], radio_range=3000.0)
    assert coverage.num_clusters == 2
    assert coverage.cluster_at((100.0, 0.0)) == 1
    assert coverage.cluster_at((1500.0, 1600.0)) == 2
    assert coverage.rsu_position(2) == (1600.0, 1600.0)
    assert coverage.chase_target(1, +1) is None  # urban chase: future work


def test_grid_coverage_uncovered_positions():
    grid = UrbanGrid(blocks_x=4, blocks_y=4, block_length=400.0)
    coverage = GridCoverage(grid, [(0, 0)], radio_range=500.0)
    assert coverage.cluster_at((1600.0, 1600.0)) is None  # too far
    assert coverage.cluster_at((99_999.0, 0.0)) is None  # off grid
    with pytest.raises(ValueError):
        coverage.rsu_position(5)
    with pytest.raises(ValueError):
        GridCoverage(grid, [])


@settings(max_examples=30, deadline=None)
@given(
    x=st.floats(0, 1600, allow_nan=False),
    y=st.floats(0, 1600, allow_nan=False),
)
def test_grid_coverage_assigns_nearest(x, y):
    grid = UrbanGrid(blocks_x=4, blocks_y=4, block_length=400.0)
    points = [(0, 0), (4, 0), (0, 4), (4, 4)]
    coverage = GridCoverage(grid, points, radio_range=5000.0)
    cluster = coverage.cluster_at((x, y))
    distances = [
        ((x - px * 400.0) ** 2 + (y - py * 400.0) ** 2) ** 0.5
        for px, py in points
    ]
    assert cluster == distances.index(min(distances)) + 1


# ----------------------------------------------------------------------
# End-to-end urban detection
# ----------------------------------------------------------------------
def test_urban_world_builds_complete_coverage():
    from repro.experiments.urban import build_urban_world

    world = build_urban_world(seed=2)
    assert len(world.rsus) == 9  # 3x3 sampled intersections on a 4x4 grid
    # Every street point is covered by some RSU.
    for point in world.grid.intersections():
        assert world.coverage.cluster_at(point) is not None
    # The backbone is connected: every RSU has a path to every other.
    addresses = [rsu.address for rsu in world.rsus]
    for src in addresses:
        for dst in addresses:
            assert world.net.backbone_path_length(src, dst) is not None


def test_urban_vehicle_joins_and_rejoins_clusters():
    from repro.experiments.urban import add_urban_vehicle, build_urban_world

    world = build_urban_world(seed=4)
    vehicle = add_urban_vehicle(world, "v", (0, 0), speed=20.0)
    world.sim.run(until=3.0)
    first = vehicle.current_cluster
    assert first is not None
    world.sim.run(until=60.0)
    # Sixty seconds of 20 m/s grid driving crosses Voronoi cells.
    assert vehicle.current_cluster is not None


def test_urban_detection_end_to_end():
    from repro.experiments.urban import run_urban_trial

    result = run_urban_trial(seed=3)
    assert result.detected
    assert not result.false_positive
    assert result.verdicts == ["black-hole"]
    assert result.packets in range(6, 10)


def test_urban_density_sweep_shape():
    from repro.experiments.urban import run_urban_density_sweep

    rows = run_urban_density_sweep(spacings=(2, 4), seed=3)
    by_spacing = {row.rsu_spacing: row for row in rows}
    dense = by_spacing[2]
    sparse = by_spacing[4]
    assert dense.coverage_fraction == 1.0
    assert dense.attacker_covered and dense.detected
    # The sparse deployment violates the paper's coverage rule: the
    # mid-grid attacker sits outside every RSU footprint and escapes
    # detection — but still never a false positive.
    assert sparse.coverage_fraction < 1.0
    assert not sparse.attacker_covered
    assert not sparse.detected
    assert not dense.false_positive and not sparse.false_positive


def test_urban_rsu_spacing_validation():
    from repro.experiments.urban import build_urban_world

    import pytest as _pytest

    with _pytest.raises(ValueError):
        build_urban_world(rsu_spacing=0)
