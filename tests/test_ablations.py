"""Ablations A-C: BlackDP against the related-work baselines, what the
fake-destination double probe buys, and detection cost versus density.

``blackdp ablations`` prints the same tables.
"""

from repro.experiments.sweeps import (
    run_baseline_comparison,
    run_overhead_sweep,
    run_probe_ablation,
)


#: EXPERIMENTS.md's Ablation A table: scenario -> detected by
#: (Jaiswal compare, Jhaveri PEAK, Tan static, BlackDP).
ABLATION_A = {
    "multi-replier": (True, True, True, True),
    "single-replier": (False, True, True, True),
    "modest-seq": (False, False, False, True),
    "cooperative-teammate": (False, False, False, True),
}


def test_only_blackdp_survives_the_hard_baseline_scenarios():
    methods = ("jaiswal-compare", "jhaveri-peak", "tan-static", "blackdp")
    by_scenario = {row.scenario: row.detected_by for row in run_baseline_comparison()}
    assert set(by_scenario) == set(ABLATION_A)
    for scenario, expected in ABLATION_A.items():
        # The cooperative row asks whether each method names the teammate.
        suffix = "(teammate)" if scenario == "cooperative-teammate" else ""
        assert by_scenario[scenario] == {
            f"{method}{suffix}": detected
            for method, detected in zip(methods, expected)
        }, scenario


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
