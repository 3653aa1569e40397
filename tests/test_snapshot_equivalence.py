"""The golden-trace guarantee, end to end.

Pausing a trial at an arbitrary virtual time, snapshotting it,
restoring the snapshot (in a fresh notional process: the process-global
allocators are rewound), and running to completion must be
*byte-identical* to never having paused: same TrialResult — outcome,
records, every address set — and identical observability metrics.

Checked for all three attack scenarios, at pause points both inside the
warm-up and mid-verification, plus the fork-at-time arm equivalence (one
warm-up however many arms) and a stale-schema rejection.
"""

import dataclasses
import pickle

import pytest

from repro.experiments.config import (
    ATTACK_COOPERATIVE,
    ATTACK_NONE,
    ATTACK_SINGLE,
    TrialConfig,
)
from repro.experiments import trial as trial_module
from repro.experiments.trial import (
    TrialSession,
    begin_trial,
    run_trial,
    run_trial_arms,
)
from repro.snapshot import SnapshotSchemaError, snapshot_info
from repro.snapshot import codec


def result_bytes(result) -> bytes:
    """Canonical bytes of everything deterministic in a TrialResult.

    The profiler's wall-clock timings are the one legitimately
    nondeterministic field; nothing in these tests enables it, but the
    exclusion keeps the helper honest if a scenario ever does.
    """
    payload = {
        name: value
        for name, value in vars(result).items()
        if name != "profile"
    }
    return pickle.dumps(payload, protocol=4)


SCENARIOS = [
    # (attack, cluster, pause time): one pause inside the warm-up, the
    # rest mid-verification at awkward non-boundary times.
    (ATTACK_SINGLE, 5, 0.6),
    (ATTACK_SINGLE, 5, 4.0),
    (ATTACK_SINGLE, 9, 7.3),
    (ATTACK_COOPERATIVE, 5, 9.5),
    (ATTACK_COOPERATIVE, 8, 2.0),
    (ATTACK_NONE, 5, 2.0),
]


@pytest.mark.parametrize("attack,cluster,pause", SCENARIOS)
def test_restore_then_run_matches_straight_run(attack, cluster, pause):
    config = TrialConfig(
        seed=42, attack=attack, attacker_cluster=cluster, metrics=True
    )
    straight = run_trial(config)

    session = begin_trial(config)
    session.run_to(pause)
    blob = session.snapshot()
    resumed = TrialSession.restore(blob).finish()

    assert result_bytes(resumed) == result_bytes(straight)
    assert resumed.metrics == straight.metrics


def test_snapshot_header_carries_trial_metadata():
    config = TrialConfig(seed=13, attack=ATTACK_SINGLE, attacker_cluster=4)
    session = begin_trial(config)
    session.run_to(5.0)
    info = snapshot_info(session.snapshot())
    assert info.sim_time == 5.0
    assert info.seed == 13


def test_double_restore_from_one_blob_is_deterministic():
    """A blob is a value: restoring it twice yields the same future both
    times (the global allocators rewind on every restore)."""
    config = TrialConfig(seed=8, attack=ATTACK_SINGLE, attacker_cluster=6)
    session = begin_trial(config)
    session.run_to(3.0)
    blob = session.snapshot()
    first = TrialSession.restore(blob).finish()
    second = TrialSession.restore(blob).finish()
    assert result_bytes(first) == result_bytes(second)


def test_fork_arms_match_cold_runs(monkeypatch):
    base = TrialConfig(seed=7, attack=ATTACK_SINGLE, attacker_cluster=5)
    treatments = {
        "base": base.blackdp,
        "slow": dataclasses.replace(base.blackdp, inter_probe_delay=1.0),
        "slower": dataclasses.replace(base.blackdp, inter_probe_delay=2.0),
    }

    # Every arm forks the one warmed-up world: a single begin_trial.
    begun = []

    def counting_begin(config):
        begun.append(config)
        return begin_trial(config)

    with monkeypatch.context() as patch:
        patch.setattr(trial_module, "begin_trial", counting_begin)
        arms = run_trial_arms(base, treatments)
    assert len(begun) == 1

    for name, treatment in treatments.items():
        cold = run_trial(dataclasses.replace(base, blackdp=treatment))
        assert result_bytes(arms[name]) == result_bytes(cold), name
    # The treatment is real: the arms diverge from each other.
    assert result_bytes(arms["base"]) != result_bytes(arms["slow"])


def test_stale_schema_snapshot_is_rejected(monkeypatch):
    config = TrialConfig(seed=3, attack=ATTACK_NONE, attacker_cluster=5)
    session = begin_trial(config)
    session.run_to(0.5)
    blob = session.snapshot()
    monkeypatch.setattr(codec, "SNAPSHOT_SCHEMA", codec.SNAPSHOT_SCHEMA + 1)
    with pytest.raises(SnapshotSchemaError):
        TrialSession.restore(blob)
