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


#: ``(attack, detector, base seed) -> (trace sha256, summary sha256)`` of
#: the 20-vehicle arena cells of the three sequence-number threshold
#: detectors, for every attack but the flood (one trial per cell).
ARENA_THRESHOLD_GOLDEN = {
    ("single", "sequence", 1): (
        "bbc8a4461cab8d2c8c1118b4953d732b263d8588501e9ca604f9dafee06a7b4f",
        "6465ec686dd169161e05ab4b7506c9b21fc6ec1b82b01a9759aa8bafcb340b60",
    ),
    ("single", "sequence", 2): (
        "19e051a36a2f2d7c6a68e88d0ccb4b0c5130e0ca8506f6a8b493315474551782",
        "2fb92f0e9a1878f81f2bc78c014a1c2fa60f23b7a6ace6817fd7fe7b10459804",
    ),
    ("single", "peak", 1): (
        "a39cbc0c9ffd6658a9c5276e36c54e61bfd9cced20bb0bf9057924a348fe39d0",
        "6014f9bb5f97e6482ce02898fa0fb537889c373ed3bb44605d7b462506b0257f",
    ),
    ("single", "peak", 2): (
        "48dda590d4dbed6967be1193997c103e4caeb1f2835be9739c5d801b2b5baef4",
        "4d3a3786fa1cba32ac37183d307e9a576c1f10ce7600b5ba16c794664cf0104c",
    ),
    ("single", "static", 1): (
        "4e562536c6646250bee3aafdc037c9c4cf85622187066b98d5d8353efabc5bba",
        "1fccc764f0681ba9cd76a96e33bdc3e56d61740d286afe4cc2c37b253d9a022f",
    ),
    ("single", "static", 2): (
        "0134fa269ed1be0078f22d0ff2333a2c509797ea141659c867c3d735e59a4333",
        "c5779069bc060d8d34c64fbf08368a4d1cd796f7077ce812bbef926a20cd1e07",
    ),
    ("cooperative", "sequence", 1): (
        "00eb413f494df156bf68883b29121ad5a1ef6cbf8c75aaa9d413373a9ab26e5a",
        "71ac09acc9c9cfe856bd1ec7faf166fdab59ca3e8a64d59c98e31c444bfba868",
    ),
    ("cooperative", "sequence", 2): (
        "8a3c498b132ceefc7c90bc750e0374c9bd50b1bf4d0ce789145371d3f95517cd",
        "7b3f8a7658ea422b8ab92f3121ba79224b2adaa014de193d9554d511c734034e",
    ),
    ("cooperative", "peak", 1): (
        "321e52f1cfa552d56e04ab6c6788ddeffbef011cf6b29ce8da214362ddc313ad",
        "1a84bd4a5ee5cf685fffd6105359964a29ed739e55d30571f658f4866f8b3863",
    ),
    ("cooperative", "peak", 2): (
        "9df4d268ee1468fd3065d510c3dc72cdd0a8aef02278d4016ec2b76d46f15c83",
        "82df64c12673c0747b5b9743543b49ffbb0a052512a6bb0d2f0ca0b5eb2ca956",
    ),
    ("cooperative", "static", 1): (
        "7336f5761885e4a27d026e1ef37d14ced751f889d8289b257369642fa5606208",
        "0fa83f72126522973ebfaedb9e55035f0cc65233b4d58f5ab125f2c66a7bb172",
    ),
    ("cooperative", "static", 2): (
        "5a509edb21f5fb2d1f635ff494c2fd016626536a1a8dcc609a6494c543ff3037",
        "e6eb0950ee1b02e9c0e6c96515ab2a4e79ac21510be43d24efb5d49716ba2b0a",
    ),
    ("grayhole", "sequence", 1): (
        "860e4a7ab7c9beaf3726cf84a3c2fdb28512794d25f7ad757d2e55175b56ccc4",
        "2c2f64dd318fb53b766aa2544893722f214de0e7cea3f5817b4f795325873a9e",
    ),
    ("grayhole", "sequence", 2): (
        "ddd537bc1fe547f7f4bdbfc0f856fdff754c81918b3f5823a3d2babc672b4d69",
        "d540f16141e507d08699412e9d0fe3e9b89eda5c914d4e626662167cb23fbcb2",
    ),
    ("grayhole", "peak", 1): (
        "726d65a3908f8203329e2dc0f55fe4aa9c05adc774f96d30c8adffce9fb00cda",
        "b4105e05700b46d6706e0117383d2b4ceb720d3803c92587e1d320c91d9a92c0",
    ),
    ("grayhole", "peak", 2): (
        "c003cb29cd55883a5da4e11d91a743e8432899793b527efc6cf4da8baf11cf54",
        "c4c812e76dd3969618f340bad7e520a4a3e42034d7315c403c4e894063cc89a0",
    ),
    ("grayhole", "static", 1): (
        "bd41ebe6a6d4f349669572984b8c2a6de503a4e4ae31421b12f099108e7919c8",
        "8373446041e79a0f8a76e5c99a35b712bf9db0f386e7fb01d92380dff46f0be0",
    ),
    ("grayhole", "static", 2): (
        "b186f9cb5921b495849f1f24aea053ad598b4b47809ff229a037d117f60f9532",
        "549bde52a3c48e7553988081d81534be95f1ca4ac1e7cb2c8d476026d9ad85ee",
    ),
    ("wormhole", "sequence", 1): (
        "b674dacf0179702269e9017df0097f4b398f859a02fd89ff078e60e7120151b7",
        "a4dfca47cc20d7f0b99f911abc7edcdae1d2e6860634b88ce30f959ac23c476a",
    ),
    ("wormhole", "sequence", 2): (
        "cfef474961c127ca0dc86c5591e583a6ecf53cd11279376de125f80208df1ac6",
        "eaa175adfeb6fe88eb4dfeaf0f8b78f4db1a192ff9958808de5517a2636934f1",
    ),
    ("wormhole", "peak", 1): (
        "6cde913151feae6f6a5e24ee6939348c150b93f787d1c162d48884ec1b039e93",
        "9c3f49d07ce58656181239342499876b07e66cd9b4c3489779af5f9bf845d2b3",
    ),
    ("wormhole", "peak", 2): (
        "ba7da9bdafa1c216b4d159061439ca45e3531963cb3f52d3b2cac69ba1e6f56e",
        "c685bf36ecbe7ef611e6cfae8ab37cb45284cd0294a109acdfff4bf9e45d466a",
    ),
    ("wormhole", "static", 1): (
        "057c6ed1a008806676c6e54304197099eea39ef81c8c3acc3a23ee1cb4f51caf",
        "6580fbdeadc2017b665af0437049c066e7fe94033da6a0b7b93ea336f39e2e32",
    ),
    ("wormhole", "static", 2): (
        "d08ef18a019cd815e36184b98c68ae2b21d927206b17b23d51fe236e8fab21a9",
        "3fbdaf66d969cde476d3736c173160bbe1cba982c263beca7be5071d297017b1",
    ),
    ("sybil", "sequence", 1): (
        "a0147e9d80fce4181902c05a7184a7981c69c8c645ba7b1f42337f95f1544556",
        "2fe513dbea1d0091c879aa645390706b7cb3c2299c8b1b4ae36e5687fd5f8265",
    ),
    ("sybil", "sequence", 2): (
        "5f1423d836b0677dbe6038161567fb21a2d8ba72b7d081fbdcb5064daf966899",
        "491f9410a604db38b641e9dc81126ff0ca2dbb278625c075eb67e7295e8879c8",
    ),
    ("sybil", "peak", 1): (
        "530f39fc29dbbdd3b62bb2f1fc1e48af28d2a88ffe3d9d703669c30f137555e0",
        "982c7879b3bc15db684ab2f95ad82683c1002bf14062f25f578cba9138b59af3",
    ),
    ("sybil", "peak", 2): (
        "6a7c80ba331a0720169938164a6553c82b64c43dede1c9918c4d8bac80d12673",
        "55d76b2f0ba5d40ed97c8d1c4fc4633829fb9917a98e570bbaaedef9cc3f77f3",
    ),
    ("sybil", "static", 1): (
        "6c83b50583a1f39ef36e07523922ca93a859988ccd914e3cc271c975c62813ba",
        "f15777d269bdc9136345ddf6c142ea76cf24578da6e5196198ae6733c2f7b38f",
    ),
    ("sybil", "static", 2): (
        "060d8665dfbef994c25b1cbd062d0946693ca4c01ffcb87bbc571880ee6b237d",
        "0b497d221fe5ff4d4de9192f535a4ddcbb1a52dfecc74bbb496ee3cd3982739b",
    ),
    ("adaptive", "sequence", 1): (
        "dc2ea083c13e8733302c79b17d467d867007aa0b80cd27e46d9edebff5a4fe19",
        "ab37d4ee7995e049016a98834391ab3fdfeea5fe16471efb911473d3a978dea7",
    ),
    ("adaptive", "sequence", 2): (
        "d4e2e95b6adc647371e766a148dbe1939f30c124da3526388e2301b86f10e15c",
        "f126e34f1ed308ebf1d8133c4f595300cc9f008784eb8146ff5d9aec9280e48c",
    ),
    ("adaptive", "peak", 1): (
        "4f40cb7e7b9d49c03e0f6ef05877cb0c2d0721c345c652ec9b7319988f6e1eec",
        "a2c3994ad4ad1d18dfedcc945a86ca7cfbbf37f70a868a7b6c547511e27f4f56",
    ),
    ("adaptive", "peak", 2): (
        "b7471f1eedbb467a8cf1f5f78112fcda3d8f0ed2004350581e73b56a5252f106",
        "fb126ee3afbea845a02cad4d6f4e283108faa4fa047f93f355e907d004842836",
    ),
    ("adaptive", "static", 1): (
        "4b84db80d1ed1afb9a040ff843b594d09d54ec68fdee2e833236721891171e71",
        "313b216699d69fa2f8bbfb658ece033243b5edd207c2ed697eb2a174bff555ca",
    ),
    ("adaptive", "static", 2): (
        "b7a5e6bee376cf6e9ed1ebb0a114178350a391403d105adeb41f6e703249d18d",
        "9aa9526c5dc5d5942d6c912b367e68410a79e9d21b68d563c7b15edc31b929ef",
    ),
}


@pytest.mark.parametrize("attack,detector,base_seed", sorted(ARENA_THRESHOLD_GOLDEN))
def test_arena_threshold_cells_match_golden_digests(attack, detector, base_seed):
    (config,) = cell_configs(
        attack, detector, base_seed=base_seed, trials=1, num_vehicles=20
    )
    assert _trial_digests(config) == ARENA_THRESHOLD_GOLDEN[
        (attack, detector, base_seed)
    ]


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
