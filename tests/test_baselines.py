"""Tests for baseline detectors, including their documented failure modes."""

import pytest

from repro.baselines import (
    SEQUENCE_PRESETS,
    SequenceThresholdDetector,
    WatchdogTrustDetector,
)
from repro.routing import RouteReply


def reply(who, seq, hops=2):
    return RouteReply(
        src=who, dst="src", replied_by=who, destination_seq=seq, hop_count=hops
    )


def preset(name):
    return SequenceThresholdDetector(**SEQUENCE_PRESETS[name])


# ----------------------------------------------------------------------
# Jaiswal: first-reply comparison (relative ceiling)
# ----------------------------------------------------------------------
def test_sequence_comparison_flags_outlier_first_reply():
    detector = preset("sequence")
    replies = [reply("attacker", 200), reply("honest1", 20), reply("honest2", 25)]
    verdict = detector.evaluate(replies)
    assert verdict.detected_attack
    assert verdict.flagged == ["attacker"]
    assert verdict.chosen.replied_by == "honest2"


def test_sequence_comparison_accepts_normal_spread():
    detector = preset("sequence")
    verdict = detector.evaluate([reply("a", 30), reply("b", 25)])
    assert not verdict.detected_attack
    assert verdict.chosen.replied_by == "a"


def test_sequence_comparison_fails_on_single_replier():
    """The CV-highway failure mode the paper calls out: when the attacker
    is the only replier there is nothing to compare against."""
    detector = preset("sequence")
    verdict = detector.evaluate([reply("attacker", 500)])
    assert not verdict.detected_attack
    assert verdict.chosen.replied_by == "attacker"  # poisoned route accepted


def test_sequence_comparison_ratio_validation():
    with pytest.raises(ValueError):
        SequenceThresholdDetector(ratio=1.0)


# ----------------------------------------------------------------------
# Jhaveri: PEAK threshold (absolute ceiling that grows)
# ----------------------------------------------------------------------
def test_peak_flags_above_peak():
    detector = preset("peak")
    verdict = detector.evaluate([reply("attacker", 170), reply("honest", 20)])
    assert verdict.flagged == ["attacker"]
    assert verdict.chosen.replied_by == "honest"


def test_peak_tracks_legitimate_growth():
    detector = SequenceThresholdDetector(ceiling=50, growth=1.2)
    detector.evaluate([reply("h", 45)])
    # peak grew to max(50, 45) * 1.2 = 60; a legit 55 now passes
    assert detector.ceiling == 60.0
    verdict = detector.evaluate([reply("h2", 55)])
    assert not verdict.detected_attack


def test_peak_misses_attacker_under_peak():
    """A modest attacker that bids just under PEAK slips through."""
    detector = SequenceThresholdDetector(ceiling=200, growth=1.2)
    verdict = detector.evaluate([reply("attacker", 199), reply("honest", 20)])
    assert not verdict.detected_attack
    assert verdict.chosen.replied_by == "attacker"


def test_peak_validation():
    with pytest.raises(ValueError):
        SequenceThresholdDetector(ceiling=0)
    with pytest.raises(ValueError):
        SequenceThresholdDetector(ceiling=50, growth=0.9)
    # exactly one of an absolute and a relative ceiling
    with pytest.raises(ValueError):
        SequenceThresholdDetector()
    with pytest.raises(ValueError):
        SequenceThresholdDetector(ceiling=50, ratio=2.0)


# ----------------------------------------------------------------------
# Tan & Kim: static thresholds (the PEAK rule at growth 1.0)
# ----------------------------------------------------------------------
def test_static_threshold_flags_and_discards():
    detector = preset("static")
    verdict = detector.evaluate([reply("attacker", 240 + 1), reply("honest", 30)])
    assert verdict.flagged == ["attacker"]
    assert verdict.chosen.replied_by == "honest"
    # the medium-network threshold is 100: 241 is flagged
    assert "attacker" in detector.evaluate([reply("attacker", 241)]).flagged


def test_static_threshold_never_moves():
    detector = preset("static")
    for seq in (30, 100, 99):
        detector.evaluate([reply("honest", seq)])
    detector.evaluate([reply("attacker", 500)])
    assert detector.ceiling == 100.0
    assert detector.evaluate([reply("late", 101)]).detected_attack


def test_static_threshold_environments_differ():
    small = SequenceThresholdDetector(ceiling=60)
    large = SequenceThresholdDetector(ceiling=240)
    mid_seq = [reply("node", 100)]
    assert small.evaluate(mid_seq).detected_attack
    assert not large.evaluate(mid_seq).detected_attack


def test_static_threshold_false_positive_on_old_network():
    """Fixed thresholds misfire once legitimate sequence numbers age past
    them — a known weakness BlackDP's behavioural probe avoids."""
    detector = SequenceThresholdDetector(ceiling=60)
    verdict = detector.evaluate([reply("legit-but-old", 90)])
    assert verdict.detected_attack  # false positive
    assert verdict.chosen is None


# ----------------------------------------------------------------------
# Watchdog / trust
# ----------------------------------------------------------------------
def test_watchdog_flags_after_repeated_drops():
    detector = WatchdogTrustDetector()
    needed = detector.observations_to_flag()
    for _ in range(needed):
        detector.observe("attacker", forwarded=False)
    assert detector.is_flagged("attacker")
    assert detector.flagged() == ["attacker"]


def test_watchdog_rewards_forwarders():
    detector = WatchdogTrustDetector()
    for _ in range(10):
        detector.observe("honest", forwarded=True)
    assert not detector.is_flagged("honest")
    assert detector.trust["honest"] > detector.initial_trust


def test_watchdog_churn_resets_reputation():
    """Pseudonym renewal launders the attacker's bad reputation."""
    detector = WatchdogTrustDetector()
    for _ in range(detector.observations_to_flag()):
        detector.observe("old-pid", forwarded=False)
    assert detector.is_flagged("old-pid")
    detector.forget("old-pid")  # vehicle "left"; attacker returns renamed
    assert not detector.is_flagged("new-pid")


def test_watchdog_vote_pollution_harms_honest_nodes():
    """Attackers voting an honest node down drags it under threshold."""
    detector = WatchdogTrustDetector()
    for _ in range(5):
        detector.observe("honest", forwarded=True)
    before = detector.trust["honest"]
    detector.absorb_votes({"honest": 0.0}, weight=0.8)  # malicious votes
    assert detector.trust["honest"] < before
    assert detector.is_flagged("honest")  # framed


def test_watchdog_vote_weight_validation():
    with pytest.raises(ValueError):
        WatchdogTrustDetector().absorb_votes({"x": 0.5}, weight=1.5)
