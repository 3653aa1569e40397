"""Ablations A-C: BlackDP against the related-work baselines, what the
fake-destination double probe buys, and detection cost versus density.

``blackdp ablations`` prints the same tables.
"""

from repro.experiments.sweeps import (
    run_baseline_comparison,
    run_overhead_sweep,
    run_probe_ablation,
)


def test_only_blackdp_survives_the_hard_baseline_scenarios():
    by_scenario = {row.scenario: row.detected_by for row in run_baseline_comparison()}
    # Every method catches the textbook multi-replier case.
    assert all(by_scenario["multi-replier"].values())
    # Only BlackDP catches the single replier and the modest-sequence liar.
    assert by_scenario["single-replier"]["blackdp"]
    assert not by_scenario["single-replier"]["jaiswal-compare"]
    assert by_scenario["modest-seq"]["blackdp"]
    for method in ("jhaveri-peak", "tan-static", "jaiswal-compare"):
        assert not by_scenario["modest-seq"][method], method
    # Only BlackDP's next-hop inquiry exposes the cooperative teammate.
    teammate = by_scenario["cooperative-teammate"]
    assert teammate["blackdp(teammate)"]
    assert not any(
        detected for method, detected in teammate.items()
        if method != "blackdp(teammate)"
    )


def test_double_probe_convicts_no_honest_cacher():
    result = run_probe_ablation()
    # Both designs catch the same attackers...
    assert result.blackdp_true_positives == result.attacker_suspects
    assert result.naive_true_positives == result.attacker_suspects
    # ...but only the naive single probe convicts honest route cachers.
    assert result.naive_false_positives == result.honest_suspects
    assert result.blackdp_false_positives == 0


def test_detection_cost_is_density_independent():
    rows = run_overhead_sweep(densities=(25, 50, 100, 200))
    # The examination is CH-to-suspect point to point: density only
    # changes the discovery flood, never the detection packet count.
    assert len({row.detection_packets for row in rows}) == 1
    assert all(row.detection_latency < 5.0 for row in rows)
