"""Packet-delivery-ratio experiment (extension).

Quantifies the damage each attack does and what BlackDP recovers: a
source streams data to a far destination through a relay chain, with an
attacker parked beside the path.  Under plain AODV the poisoned route
swallows traffic (all of it for a black hole, a fraction for a gray
hole); with BlackDP the route is verified first, the attacker is
convicted and isolated, and the retry delivers over the honest chain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks import AttackerPolicy, GrayHoleVehicle
from repro.experiments.world import World, build_world

#: positions of the honest relay chain between source (100) and the
#: destination (3300); every hop is 800 m.
_RELAY_XS = (900.0, 1700.0, 2500.0)
_SOURCE_X = 100.0
_DEST_X = 3300.0
_ATTACKER_X = 1000.0


@dataclass(frozen=True)
class PdrRow:
    """Delivery outcome of one (attack, defense) cell."""

    attack: str
    defense: str
    sent: int
    delivered: int
    dropped_by_attacker: int

    @property
    def pdr(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


def _build(attack: str, seed: int) -> tuple[World, object, object, object]:
    world = build_world(seed=seed)
    source = world.add_vehicle("source", x=_SOURCE_X)
    # The stealth gray hole replaces the first honest relay: it routes
    # honestly (no fake RREPs) and only damages the forwarding plane.
    relay_xs = _RELAY_XS[1:] if attack == "grayhole-stealth" else _RELAY_XS
    for index, x in enumerate(relay_xs):
        world.add_vehicle(f"relay-{index}", x=x)
    destination = world.add_vehicle("destination", x=_DEST_X)
    attacker = None
    if attack == "single":
        attacker = world.add_attacker("blackhole", x=_ATTACKER_X)
    elif attack == "grayhole-routing":
        attacker = world.add_attacker(
            "grayhole", _ATTACKER_X, vehicle_cls=GrayHoleVehicle,
            policy=AttackerPolicy.aggressive(),
        )
    elif attack == "grayhole-stealth":
        attacker = world.add_attacker(
            "grayhole", _RELAY_XS[0], vehicle_cls=GrayHoleVehicle,
            policy=AttackerPolicy.act_legitimately(),
        )
    elif attack == "cooperative":
        attacker, _teammate = world.add_cooperative_pair(
            _ATTACKER_X, _ATTACKER_X + 500.0
        )
    world.sim.run(until=0.5)
    return world, source, destination, attacker


def _stream(world, source, destination, packets: int) -> int:
    delivered = []
    destination.aodv.add_data_sink(delivered.append)
    for index in range(packets):
        source.aodv.send_data(destination.address, payload=index)
        world.sim.run(until=world.sim.now + 0.05)
    world.sim.run(until=world.sim.now + 2.0)
    return len(delivered)


def _run_plain(attack: str, packets: int, seed: int) -> PdrRow:
    world, source, destination, attacker = _build(attack, seed)
    results = []
    source.aodv.discover(destination.address, results.append)
    world.sim.run(until=world.sim.now + 5.0)
    delivered = _stream(world, source, destination, packets)
    dropped = attacker.aodv.data_dropped if attacker is not None else 0
    return PdrRow(attack, "plain-aodv", packets, delivered, dropped)


def _run_blackdp(attack: str, packets: int, seed: int) -> PdrRow:
    world, source, destination, attacker = _build(attack, seed)
    verifier = world.verifiers["source"]
    outcome = None
    for _attempt in range(2):  # verification, then retry after isolation
        outcomes = []
        verifier.establish_route(destination.address, outcomes.append)
        # Run just until the outcome lands, so a verified route is still
        # fresh (AODV route lifetime) when the data stream starts.
        deadline = world.sim.now + 90.0
        while not outcomes and world.sim.now < deadline:
            world.sim.run(until=world.sim.now + 1.0)
        outcome = outcomes[0] if outcomes else None
        if outcome is not None and outcome.verified:
            break
    delivered = 0
    if outcome is not None and outcome.verified:
        delivered = _stream(world, source, destination, packets)
    dropped = attacker.aodv.data_dropped if attacker is not None else 0
    return PdrRow(attack, "blackdp", packets, delivered, dropped)


#: attack scenarios in the PDR table.  ``grayhole-stealth`` is the
#: documented limitation: it never violates routing, so BlackDP (a
#: routing-layer defence) cannot detect it and PDR stays degraded.
PDR_ATTACKS = (
    "none",
    "single",
    "cooperative",
    "grayhole-routing",
    "grayhole-stealth",
)


def _run_blackdp_watchdog(attack: str, packets: int, seed: int) -> PdrRow:
    """BlackDP plus the infrastructure watchdog extension.

    The watchdog convicts forwarding-plane droppers mid-stream; once a
    recovery relay exists, the remaining traffic routes around them.
    """
    from repro.core.watchdog import InfrastructureWatchdog, WatchdogConfig

    world, source, destination, attacker = _build(attack, seed)
    watchdogs = [
        InfrastructureWatchdog(service, WatchdogConfig(min_samples=6))
        for service in world.services
    ]
    verifier = world.verifiers["source"]
    outcomes = []
    verifier.establish_route(destination.address, outcomes.append)
    deadline = world.sim.now + 90.0
    while not outcomes and world.sim.now < deadline:
        world.sim.run(until=world.sim.now + 1.0)
    delivered_first = 0
    if outcomes and outcomes[0].verified:
        delivered_first = _stream(world, source, destination, packets // 2)
    # A recovery relay arrives (traffic realities change); the second
    # half of the stream benefits from any watchdog conviction so far.
    world.add_vehicle("recovery-relay", x=_RELAY_XS[0] + 60.0)
    world.sim.run(until=world.sim.now + 1.0)
    retry = []
    try:
        verifier.establish_route(destination.address, retry.append)
        deadline = world.sim.now + 90.0
        while not retry and world.sim.now < deadline:
            world.sim.run(until=world.sim.now + 1.0)
    except RuntimeError:
        pass  # first verification still pending; stream on current route
    delivered_second = 0
    if (retry and retry[0].verified) or (outcomes and outcomes[0].verified):
        delivered_second = _stream(
            world, source, destination, packets - packets // 2
        )
    for watchdog in watchdogs:
        watchdog.stop()
    dropped = attacker.aodv.data_dropped if attacker is not None else 0
    return PdrRow(
        attack, "blackdp+wd", packets, delivered_first + delivered_second,
        dropped,
    )


#: defense label -> cell runner; module-level so cells pickle by reference
_PDR_DEFENSES = {
    "plain-aodv": _run_plain,
    "blackdp": _run_blackdp,
    "blackdp+wd": _run_blackdp_watchdog,
}


def _pdr_cell(defense: str, attack: str, packets: int, seed: int) -> PdrRow:
    return _PDR_DEFENSES[defense](attack, packets, seed)


def run_pdr(
    packets: int = 40,
    seed: int = 55,
    *,
    include_watchdog: bool = True,
    parallel=None,
) -> list[PdrRow]:
    """PDR for every (attack, defense) combination.

    Each cell streams through its own seeded world; ``parallel`` fans
    the grid out with rows re-assembled in table order.
    """
    cells = []
    for attack in PDR_ATTACKS:
        cells.append(("plain-aodv", attack, packets, seed))
        cells.append(("blackdp", attack, packets, seed))
    if include_watchdog:
        cells.append(("blackdp+wd", "grayhole-stealth", packets, seed))
    if parallel is not None:
        return parallel.map(_pdr_cell, cells)
    return [_pdr_cell(*cell) for cell in cells]


def format_pdr(rows: list[PdrRow]) -> str:
    lines = [
        "Extension — packet delivery ratio under attack",
        f"{'attack':<12} {'defense':<11} {'sent':>5} {'delivered':>9} "
        f"{'PDR':>6} {'dropped-by-attacker':>20}",
    ]
    for row in rows:
        lines.append(
            f"{row.attack:<12} {row.defense:<11} {row.sent:>5d} "
            f"{row.delivered:>9d} {row.pdr:>6.2f} "
            f"{row.dropped_by_attacker:>20d}"
        )
    return "\n".join(lines)
