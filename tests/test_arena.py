"""Tests for the adversary–detector arena: registry, pins, golden trace,
matrix determinism, and cache-schema hygiene.

The behavioural pins encode which detector catches which attacker — the
arena's headline claims:

- the wormhole pair defeats the paper's examiner (the exit end cannot
  confirm fabricated probe destinations) but is caught by the DRI
  cross-check;
- the adaptive probe-aware attacker evades the naive single-probe
  detector and the sequence-ratio baseline, yet the examiner's
  same-alias two-probe protocol still traps it;
- the sybil pseudonym corroborations defeat the sequence-ratio test
  that catches a lone black hole.

All pins run in 20-vehicle worlds (the repo-wide fast-test convention)
and were cross-checked against paper-scale runs.
"""

import json
import re

import pytest

from repro.arena import (
    ArenaConfig,
    DEFAULT_DETECTORS,
    aggregate_matrix,
    arena_csv,
    arena_spec,
    available_detectors,
    expand_arena_spec,
    format_matrix,
    run_matrix,
)
from repro.experiments.config import TableIConfig, TrialConfig
from repro.experiments.executor import (
    CACHE_SCHEMA,
    ResultCache,
    summarize_trial,
    trial_cache_key,
)
from repro.experiments.trial import run_trial

#: Small world so each trial costs milliseconds, not a minute.
SMALL = TableIConfig(num_vehicles=20)

#: Every live adapter in passive mode plus the examiner pipeline — the
#: configuration that must not perturb the simulation at all.
PASSIVE = ArenaConfig(
    detectors=("examiner", "sequence", "peak", "static", "trust", "dri"),
    convict=False,
)


def arena_trial(
    attack: str, detector: str, *, seed: int = 11, trace: bool = True, **kwargs
):
    return run_trial(
        TrialConfig(
            seed=seed,
            attack=attack,
            attacker_cluster=5,
            table=SMALL,
            arena=ArenaConfig(detectors=(detector,), **kwargs),
            trace=trace,
        )
    )


# ----------------------------------------------------------------------
# Registry and config validation
# ----------------------------------------------------------------------


def test_registry_lists_full_roster():
    roster = available_detectors()
    assert roster == tuple(sorted(roster))
    assert set(DEFAULT_DETECTORS) <= set(roster)


def test_arena_config_requires_a_detector():
    with pytest.raises(ValueError):
        ArenaConfig(detectors=())


def test_unknown_detector_rejected_at_install():
    config = TrialConfig(
        seed=1, attack="single", attacker_cluster=5, table=SMALL,
        arena=ArenaConfig(detectors=("nonesuch",)),
    )
    with pytest.raises(ValueError, match="nonesuch"):
        run_trial(config)


# ----------------------------------------------------------------------
# Behavioural pins: who catches whom
# ----------------------------------------------------------------------


def test_wormhole_caught_by_dri_cross_check():
    result = arena_trial("wormhole", "dri")
    assert result.attack_present
    assert result.detected
    assert not result.false_positive
    assert result.convicted_addresses & result.attacker_addresses


def test_wormhole_defeats_examiner():
    # The tunnel entry claims destinations its exit end can actually
    # reach only through fabrication; the examiner's probes go
    # unanswered in a way that looks like churn, not malice.
    result = arena_trial("wormhole", "examiner")
    assert result.attack_present
    assert not result.detected
    assert not result.false_positive


def test_adaptive_caught_by_examiner_two_probe():
    result = arena_trial("adaptive", "examiner")
    assert result.detected
    assert not result.false_positive


def test_adaptive_and_sybil_degrade_sequence_baseline():
    # Control: the lone aggressive black hole is exactly what the
    # sequence-ratio baseline was built for.
    control = arena_trial("single", "sequence")
    assert control.detected and not control.false_positive
    # The adaptive attacker caps its fake sequence boost under the
    # ratio; the sybil splits its claim across corroborating
    # pseudonyms.  Both walk straight past the same baseline.
    for attack in ("adaptive", "sybil"):
        result = arena_trial(attack, "sequence")
        assert result.attack_present
        assert not result.detected, f"{attack} should evade sequence"
        assert not result.false_positive


def test_single_black_hole_caught_by_threshold_and_trust():
    for detector in ("peak", "trust"):
        result = arena_trial("single", detector)
        assert result.detected, f"{detector} should catch the black hole"
        assert not result.false_positive


def test_flood_caught_by_sketch_monitors_only():
    # The RREQ flood never sends a route reply, so every reply-centric
    # detector is blind; the line-rate sketch monitors convict it.
    result = arena_trial("flood", "sketch")
    assert result.detected
    assert not result.false_positive
    # The examiner's verdict needs no trace, and a flood trial runs
    # markedly faster without one.
    result = arena_trial("flood", "examiner", trace=False)
    assert not result.detected
    assert not result.false_positive


def test_naive_prober_convicts_honest_cachers():
    # The naive single-probe detector trusts any RREP answer — honest
    # nodes replying from route caches get convicted wholesale.  This
    # is the false-positive weakness the paper's examiner fixes.
    result = arena_trial("adaptive", "naive")
    assert result.false_positive
    assert len(result.convicted_addresses) > 2


# ----------------------------------------------------------------------
# Golden trace: passive adapters must not perturb the simulation
# ----------------------------------------------------------------------


def _normalized_trace(events):
    """Trace JSON with the process-global packet uids renumbered.

    Packet uids come from a module-level counter shared by every trial
    in the process; renumbering by first appearance (both the
    ``packet_uid`` field and ``uid:N`` references inside cause/detail)
    makes traces from different trials comparable byte for byte.
    """
    out = []
    remap = {}

    def renumber(uid):
        return remap.setdefault(int(uid), len(remap) + 1)

    for event in events:
        record = json.loads(event.to_json())
        if record["packet_uid"]:
            record["packet_uid"] = renumber(record["packet_uid"])
        for key in ("cause", "detail"):
            record[key] = re.sub(
                r"uid:(\d+)",
                lambda m: f"uid:{renumber(m.group(1))}",
                record[key],
            )
        out.append(json.dumps(record, sort_keys=True))
    return out


@pytest.mark.parametrize("attack", ["single", "wormhole", "sybil", "adaptive"])
def test_passive_arena_preserves_golden_trace(attack):
    plain = run_trial(
        TrialConfig(
            seed=11, attack=attack, attacker_cluster=5, table=SMALL, trace=True
        )
    )
    observed = run_trial(
        TrialConfig(
            seed=11, attack=attack, attacker_cluster=5, table=SMALL,
            trace=True, arena=PASSIVE,
        )
    )
    assert _normalized_trace(plain.trace_events) == _normalized_trace(
        observed.trace_events
    )


# ----------------------------------------------------------------------
# Matrix plumbing: spec expansion, aggregation, determinism
# ----------------------------------------------------------------------


def test_expand_arena_spec_order_and_shape():
    spec = arena_spec(
        attacks=("single", "wormhole"), detectors=("dri", "examiner"),
        trials=2, base_seed=7, num_vehicles=20,
    )
    configs = expand_arena_spec(spec)
    assert len(configs) == 8
    # Attack-major, then detector, then trial index.
    assert [c.attack for c in configs] == ["single"] * 4 + ["wormhole"] * 4
    assert [c.arena.detectors[0] for c in configs[:4]] == [
        "dri", "dri", "examiner", "examiner"
    ]
    assert all(c.trace for c in configs)
    assert all(c.table.num_vehicles == 20 for c in configs)
    # Seeds decorrelate across cells and trials.
    assert len({c.seed for c in configs}) == 8


def test_matrix_deterministic_and_resumable(tmp_path):
    kwargs = dict(
        attacks=("wormhole",), detectors=("dri",), trials=1,
        base_seed=1, num_vehicles=20,
    )
    _, first = run_matrix(tmp_path / "a", **kwargs)
    _, second = run_matrix(tmp_path / "b", **kwargs)
    assert arena_csv(first) == arena_csv(second)
    # Resuming a complete ledger re-renders from the journal for free.
    _, resumed = run_matrix(tmp_path / "a", **kwargs)
    assert resumed == first
    [cell] = first
    assert cell.detection_rate == 1.0
    assert cell.false_positive_rate == 0.0
    assert cell.median_time_to_isolation is not None
    assert cell.mean_overhead_packets > 0
    assert cell.mean_overhead_bytes > 0
    assert "wormhole" in format_matrix(first)


def test_aggregate_matrix_zips_unit_order(tmp_path):
    campaign, cells = run_matrix(
        tmp_path / "m", attacks=("wormhole", "adaptive"),
        detectors=("dri",), trials=1, base_seed=1, num_vehicles=20,
    )
    again = aggregate_matrix(campaign.manifest["spec"], campaign.results())
    assert again == cells
    assert [c.attack for c in cells] == ["wormhole", "adaptive"]


# ----------------------------------------------------------------------
# Summary fields and cache-schema hygiene
# ----------------------------------------------------------------------


def test_summary_carries_arena_columns():
    config = TrialConfig(
        seed=11, attack="wormhole", attacker_cluster=5, table=SMALL,
        arena=ArenaConfig(detectors=("dri",)), trace=True,
    )
    summary = summarize_trial(config, run_trial(config))
    assert summary.detector == "dri"
    assert summary.detected
    assert summary.time_to_isolation is not None
    assert summary.overhead_packets > 0


def test_arena_config_distinguishes_cache_keys():
    base = TrialConfig(seed=1, attack="single", table=SMALL)
    arena = TrialConfig(
        seed=1, attack="single", table=SMALL,
        arena=ArenaConfig(detectors=("dri",)),
    )
    other = TrialConfig(
        seed=1, attack="single", table=SMALL,
        arena=ArenaConfig(detectors=("sequence",)),
    )
    keys = {trial_cache_key(base), trial_cache_key(arena), trial_cache_key(other)}
    assert len(keys) == 3


def test_cli_arena_smoke(tmp_path, capsys):
    from repro.experiments.__main__ import main as cli_main

    csv_path = tmp_path / "cells.csv"
    code = cli_main([
        "arena", "--smoke", "--dir", str(tmp_path / "ledger"),
        "--csv", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wormhole" in out and "adaptive" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("attack,detector,trials,detection_rate")


def test_cli_arena_rejects_unknown_detector(capsys):
    from repro.experiments.__main__ import main as cli_main

    assert cli_main(["arena", "--detectors", "nonesuch"]) == 2
    assert "unknown detector" in capsys.readouterr().err


def test_stale_schema_records_are_skipped(tmp_path):
    config = TrialConfig(seed=11, attack="none", table=SMALL)
    key = trial_cache_key(config)
    summary = summarize_trial(config, run_trial(config))

    cache = ResultCache(tmp_path)
    cache.put(key, summary)
    shard = tmp_path / f"trials-{key[0]}.jsonl"
    record = json.loads(shard.read_text().strip())
    assert record["s"] == CACHE_SCHEMA

    # Rewrite the record as if a pre-arena build (schema 3) had written
    # it: the loader must skip it silently — stale, not corrupt.
    record["s"] = CACHE_SCHEMA - 1
    shard.write_text(json.dumps(record) + "\n")
    reloaded = ResultCache(tmp_path)
    assert reloaded.get(key) is None
    assert len(reloaded) == 0
    assert reloaded.corrupt_lines == 0


def test_live_peak_grows_once_per_accepted_reply():
    from repro.arena.adapters import SequenceThresholdAdapter
    from repro.experiments.world import build_world
    from repro.routing.packets import RouteReply

    world = build_world(seed=1)
    adapter = SequenceThresholdAdapter(
        world.services[0], ArenaConfig(detectors=("peak",)), preset="peak"
    )
    reply = RouteReply(
        src="v1", dst="v0", originator="v0", destination="v9",
        destination_seq=40, hop_count=1, lifetime=30.0, replied_by="v1",
    )
    adapter._on_overhear(reply, "v1", "v0")
    # max(50, 40) * 1.2: one growth step, not two (72.0).
    assert adapter.baseline.ceiling == 60.0
