"""Tests for the extension features: grayhole, fake Hello replies,
reply filtering / cache hygiene, and the PDR experiment."""

import pytest

from repro.attacks import AttackerPolicy, GrayHoleVehicle
from repro.experiments.world import build_world
from repro.routing import RoutingTable


# ----------------------------------------------------------------------
# Gray hole
# ----------------------------------------------------------------------
def make_grayhole(world, node_id, x, *, drop_probability=0.5, policy=None,
                  selector=None):
    return world.add_attacker(
        node_id, x, vehicle_cls=GrayHoleVehicle, policy=policy,
        drop_probability=drop_probability, selector=selector,
    )


def stream_through(world, source, destination, grayhole, count=40):
    results = []
    source.aodv.discover(destination.address, results.append)
    world.sim.run(until=world.sim.now + 5.0)
    delivered = []
    destination.aodv.add_data_sink(lambda p: delivered.append(p.payload))
    for i in range(count):
        source.aodv.send_data(destination.address, payload=i)
    world.sim.run(until=world.sim.now + 5.0)
    return delivered


def test_grayhole_drops_selectively():
    world = build_world(seed=3)
    source = world.add_vehicle("src", x=100.0)
    grayhole = make_grayhole(world, "gh", 900.0,
                             policy=AttackerPolicy.act_legitimately())
    destination = world.add_vehicle("dst", x=1700.0)
    world.sim.run(until=0.5)
    delivered = stream_through(world, source, destination, grayhole)
    assert 0 < len(delivered) < 40  # some through, some dropped
    assert grayhole.aodv.data_dropped + grayhole.aodv.data_forwarded_through == 40


def test_grayhole_selector_overrides_probability():
    world = build_world(seed=4)
    source = world.add_vehicle("src", x=100.0)
    grayhole = make_grayhole(
        world, "gh", 900.0,
        policy=AttackerPolicy.act_legitimately(),
        selector=lambda p: p.payload % 2 == 0,  # drop even payloads only
    )
    destination = world.add_vehicle("dst", x=1700.0)
    world.sim.run(until=0.5)
    delivered = stream_through(world, source, destination, grayhole, count=20)
    assert sorted(delivered) == [i for i in range(20) if i % 2 == 1]


def test_grayhole_with_fake_rreps_detected_like_blackhole():
    world = build_world(seed=5)
    reporter = world.add_vehicle("rep", x=2200.0)
    grayhole = make_grayhole(world, "gh", 2700.0)  # aggressive routing
    world.sim.run(until=0.5)
    from repro.core import DetectionRequest

    reporter.send(
        DetectionRequest(
            src=reporter.address, dst=reporter.current_ch,
            reporter=reporter.address, reporter_cluster=reporter.current_cluster,
            suspect=grayhole.address, suspect_cluster=3,
            suspect_certificate=grayhole.certificate,
        )
    )
    world.sim.run(until=world.sim.now + 30.0)
    records = world.all_records()
    assert records and records[0].verdict == "black-hole"


def test_grayhole_drop_probability_validation():
    world = build_world(seed=6)
    with pytest.raises(ValueError):
        make_grayhole(world, "gh", 900.0, drop_probability=1.5)


# ----------------------------------------------------------------------
# Fake Hello reply (anonymity response)
# ----------------------------------------------------------------------
def test_fake_hello_reply_reported_without_second_discovery():
    world = build_world(seed=7)
    source = world.add_vehicle("src", x=100.0)
    attacker = world.add_attacker(
        "bh", x=900.0, policy=AttackerPolicy(fake_hello_reply=True)
    )
    world.add_vehicle("dst", x=2500.0)
    destination = world.vehicles[-1]
    world.sim.run(until=0.5)
    outcomes = []
    world.verifiers["src"].establish_route(destination.address, outcomes.append)
    world.sim.run(until=world.sim.now + 60.0)
    outcome = outcomes[0]
    assert not outcome.verified
    assert outcome.suspect == attacker.address
    assert outcome.discoveries == 1  # anonymity response: no re-discovery
    assert outcome.verdict == "black-hole"


# ----------------------------------------------------------------------
# Reply filter and cache hygiene
# ----------------------------------------------------------------------
def test_blacklisted_replies_never_enter_routing_table():
    world = build_world(seed=8)
    source = world.add_vehicle("src", x=100.0)
    attacker = world.add_attacker("bh", x=900.0)
    world.sim.run(until=0.5)
    source.blacklist.add(attacker.address)  # pre-warned
    results = []
    source.aodv.discover("pid-ghost", results.append)
    world.sim.run(until=world.sim.now + 5.0)
    assert results[0].replies == []  # filtered before collection
    assert source.aodv.table.lookup("pid-ghost", world.sim.now) is None


def test_routing_table_flush():
    table = RoutingTable()
    table.consider("a", next_hop="x", hop_count=1, destination_seq=1, expires_at=99.0)
    table.consider("b", next_hop="y", hop_count=1, destination_seq=1, expires_at=99.0)
    assert table.flush() == 2
    assert len(table) == 0
    assert table.flush() == 0


def test_conviction_flushes_poisoned_caches_network_wide():
    world = build_world(seed=9)
    source = world.add_vehicle("src", x=100.0)
    bystander = world.add_vehicle("bystander", x=800.0)
    attacker = world.add_attacker("bh", x=900.0)
    destination = world.add_vehicle("dst", x=2500.0)
    world.sim.run(until=0.5)
    outcomes = []
    world.verifiers["src"].establish_route(destination.address, outcomes.append)
    world.sim.run(until=world.sim.now + 60.0)
    assert outcomes[0].verdict == "black-hole"
    # The bystander heard the member warning: blacklist + flushed cache.
    assert attacker.address in bystander.blacklist
    assert len(bystander.aodv.table) == 0
    assert len(source.aodv.table) == 0


# ----------------------------------------------------------------------
# PDR experiment
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def pdr_grids():
    """(attack, defense) -> row, for a 20-packet and the default 40-packet
    stream."""
    from repro.experiments.pdr import run_pdr

    return [
        {(r.attack, r.defense): r for r in run_pdr(packets=packets)}
        for packets in (20, 40)
    ]


def test_pdr_blackdp_recovers_routing_attacks(pdr_grids):
    for cells in pdr_grids:
        assert cells[("none", "plain-aodv")].pdr == 1.0
        assert cells[("single", "plain-aodv")].pdr == 0.0
        assert cells[("single", "blackdp")].pdr == 1.0
        assert cells[("cooperative", "plain-aodv")].pdr == 0.0
        assert cells[("cooperative", "blackdp")].pdr == 1.0
        assert cells[("grayhole-routing", "blackdp")].pdr == 1.0


def test_pdr_stealth_grayhole_is_documented_limitation(pdr_grids):
    for cells in pdr_grids:
        stealth_plain = cells[("grayhole-stealth", "plain-aodv")].pdr
        stealth_blackdp = cells[("grayhole-stealth", "blackdp")].pdr
        assert 0.0 < stealth_plain < 1.0
        # BlackDP is a routing-layer defence: the stealth grayhole's
        # damage is unchanged (this is asserted, not hidden).
        assert stealth_blackdp < 1.0
        assert abs(stealth_blackdp - stealth_plain) < 0.35


def test_pdr_watchdog_extension_recovers_stealth_grayhole(pdr_grids):
    for cells in pdr_grids:
        stealth_blackdp = cells[("grayhole-stealth", "blackdp")]
        watchdog = cells[("grayhole-stealth", "blackdp+wd")]
        assert watchdog.pdr > stealth_blackdp.pdr
        assert watchdog.dropped_by_attacker < stealth_blackdp.dropped_by_attacker
