"""Golden traces: committed digests of seeded runs the engine must reproduce.

The paper's results (Figure 4 detection, zero false positives, Figure 5
packet counts) depend only on event order.  Each scenario below hashes
its full trace JSONL and its :class:`TrialSummary` (or, for the raw
mesh, the executed-event count and received payloads) and compares the
sha256 against a digest recorded from an earlier engine.  Any change to
scheduling order, sequence numbering, radio fan-out or packet encoding
shows up here as a digest mismatch.

Packet uids come from a module-global counter, so each run resets it —
otherwise a second run in the same process would differ in uids alone.
To re-derive a digest after an intended behaviour change, call the
``_*_digests`` helpers directly and paste the new values.
"""

import dataclasses
import hashlib
import itertools
import json

import pytest

import repro.net.packets as packets_module
from repro.arena.matrix import cell_configs
from repro.experiments.config import (
    ATTACK_COOPERATIVE,
    ATTACK_NONE,
    ATTACK_SINGLE,
    TrialConfig,
)
from repro.experiments.executor import summarize_trial
from repro.experiments.trial import run_trial
from repro.net import ChannelConfig, Network, Node
from repro.routing.protocol import AodvConfig, AodvProtocol
from repro.sim import Simulator


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _reset_packet_uids():
    packets_module._packet_ids = itertools.count(1)


def _trial_digests(config: TrialConfig) -> tuple[str, str]:
    """``(trace, summary)`` digests of one traced trial."""
    _reset_packet_uids()
    result = run_trial(config)
    trace = "\n".join(event.to_json() for event in result.trace_events)
    summary = json.dumps(summarize_trial(config, result).to_dict(), sort_keys=True)
    return _sha256(trace), _sha256(summary)


def _metric_digests(config: TrialConfig) -> tuple[str, str]:
    """``(metrics, series)`` digests of one trial with metrics and the
    1 s sampler on: the end-of-run registry snapshot and every sampled
    series with its tick times."""
    _reset_packet_uids()
    result = run_trial(
        dataclasses.replace(config, metrics=True, sample_interval=1.0)
    )
    metrics = json.dumps(result.metrics, sort_keys=True)
    series = json.dumps((result.series_times, result.series))
    return _sha256(metrics), _sha256(series)


def _hello_mesh_digests() -> tuple[str, int, str]:
    """``(trace digest, events executed, received digest)`` of a
    jitter-free 24-node beacon mesh with one unicast on top.

    With zero jitter every beacon's receivers share one arrival time, so
    this is the scenario where batched broadcast delivery merges
    receivers instead of degenerating into singleton groups.
    """
    _reset_packet_uids()
    sim = Simulator(seed=11)
    net = Network(sim, ChannelConfig(jitter=0.0, loss_rate=0.05))
    sim.obs.enable_trace()
    nodes = []
    placement = sim.rng("placement")
    for i in range(24):
        node = Node(
            sim, f"n{i}", position=(placement.uniform(0, 3000), 0.0),
            transmission_range=600.0,
        )
        net.attach(node)
        protocol = AodvProtocol(
            node, AodvConfig(enable_hello=True, hello_interval=1.0)
        )
        nodes.append((node, protocol))
    received = []
    nodes[-1][1].add_data_sink(
        lambda packet: received.append((sim.now, packet.payload))
    )
    sim.run(until=3.0)
    source = nodes[0][1]
    destination = nodes[-1][0].address
    source.discover(
        destination, lambda _result: source.send_data(destination, "probe")
    )
    sim.run(until=12.0)
    trace = "\n".join(event.to_json() for event in sim.obs.trace.events)
    return _sha256(trace), sim.events_executed, _sha256(json.dumps(received))


#: ``(attack, attacker cluster) -> (trace sha256, summary sha256)`` at seed 7.
TABLE1_GOLDEN = {
    (ATTACK_SINGLE, 4): (
        "ba2c5e68e0b06c1d6b065438c9ee7dfb0746cb03cc1322ca82bf293e94cee947",
        "8932131c190879d4063d7d2a2cfa2843146a5f4556131a116fdf374352f37490",
    ),
    (ATTACK_COOPERATIVE, 8): (
        "d3ac753564bb2d81f6fd529a36bf8623af10a280949934783c0d6de2e548397e",
        "2894dc737706eca7b3d80c2e67f9232d1f1e83457cbdf655915ee3593848b3b9",
    ),
    (ATTACK_NONE, 4): (
        "c30c1ed2304c785aff0952342b8193b79a61a530538687c426ac05fc0278aed1",
        "ec11f5c2a191b5a8d497372de5eb11fcb4ba81fc338d3ed199e232d66ecc6683",
    ),
}

HELLO_MESH_GOLDEN = (
    "1486df7b0378c0935bfadcf3cd9c7801be97df7b79a60fe380ce571620715222",
    573,
    "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
)

#: One 20-vehicle ``flood × sketch`` arena cell (base seed 1, one trial).
ARENA_FLOOD_SKETCH_GOLDEN = (
    "8c4549b8a52049f721a9d935678232c14f005b8d21572cd01b57270549226d1a",
    "47b239c826cf3df4918e042d414fbf08c35efd55c4c620ffcc1743921955089e",
)


@pytest.mark.parametrize("attack,cluster", sorted(TABLE1_GOLDEN))
def test_table1_trial_matches_golden_digests(attack, cluster):
    config = TrialConfig(
        seed=7, attack=attack, attacker_cluster=cluster, trace=True
    )
    assert _trial_digests(config) == TABLE1_GOLDEN[(attack, cluster)]


def test_hello_mesh_matches_golden_digests():
    assert _hello_mesh_digests() == HELLO_MESH_GOLDEN


def test_arena_flood_sketch_cell_matches_golden_digests():
    (config,) = cell_configs(
        "flood", "sketch", base_seed=1, trials=1, num_vehicles=20
    )
    assert _trial_digests(config) == ARENA_FLOOD_SKETCH_GOLDEN


#: ``(attack, attacker cluster) -> (metrics sha256, series sha256)`` at
#: seed 7 with ``metrics=True, sample_interval=1.0``.
TABLE1_METRICS_GOLDEN = {
    (ATTACK_SINGLE, 4): (
        "08c8822ef7cec3a9fca3cbe34ae8fc4bb60999a69f77e40a49f5f23610fa60a6",
        "e92b76412757b151223e24de58182b18404ada80bd4bd28d21a74bf9493d1833",
    ),
    (ATTACK_COOPERATIVE, 8): (
        "76cf165b0ff90f82681d63487ac2004586d2e614c7746ebc1856a9384637c8bc",
        "b5c9bc1ce3a6ca905ccd4f39de07be66079ff9b4af4ce7a17d3b934d48ba7fba",
    ),
    (ATTACK_NONE, 4): (
        "9021e3d8ba37f3c2e2e2f208ceaba18fc4226ef87fa95310a3918acdf18adf06",
        "78afac0744b1aa37923bbcd735954fb3a6d57d2b5f383b61c24c14e7acea9868",
    ),
}

#: The 20-vehicle ``flood × sketch`` arena cell with metrics on.
ARENA_FLOOD_SKETCH_METRICS_GOLDEN = (
    "7953eb67d27f950d7105a1dd2375e2e12455e834fb41a75ea59e3079d2184a8e",
    "5ac15598f25781ad7029841aad688c77aef4876dfc146d6569ee9a52be92896d",
)


@pytest.mark.parametrize("attack,cluster", sorted(TABLE1_METRICS_GOLDEN))
def test_table1_trial_metrics_match_golden_digests(attack, cluster):
    config = TrialConfig(seed=7, attack=attack, attacker_cluster=cluster)
    assert _metric_digests(config) == TABLE1_METRICS_GOLDEN[(attack, cluster)]


def test_arena_flood_sketch_cell_metrics_match_golden_digests():
    (config,) = cell_configs(
        "flood", "sketch", base_seed=1, trials=1, num_vehicles=20
    )
    assert _metric_digests(config) == ARENA_FLOOD_SKETCH_METRICS_GOLDEN
