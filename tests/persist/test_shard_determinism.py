"""Shard-count invariance: 1, 2 or 4 shards, the same bits out.

``repro.core.shard`` splits a run into fixed per-region partitions and
treats ``shards`` as worker parallelism only, so the merged result must
be bit-identical for every shard count — under a chaos
:class:`~repro.faults.plan.FaultPlan` too, and across a mid-run
checkpoint/resume.  Sharded semantics deliberately differ from an
unsharded run (cross-region friendships drop, per-region pools and
egress budgets), so the sharded outputs carry their *own* golden pins
here instead of claiming equality with ``tests/faults`` digests.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import obs
from repro.core.config import cloudfog_advanced
from repro.core.shard import (build_partitions, merge_results,
                              resume_sharded, run_sharded)
from repro.experiments import run_sharded_config
from repro.faults.plan import FaultPlan
from repro.scenarios import Scenario
from repro.scenarios.compile import compile_scenario
from repro.sim.cycles import Schedule

from ..helpers.golden import fault_summary_digest, run_result_digest
from ..helpers.metrics import assert_dumps_match

BASELINE = cloudfog_advanced(
    num_players=600, num_datacenters=3, num_supernodes=36, seed=7,
    schedule=Schedule(days=2, warmup_days=1))
CHAOS = replace(
    BASELINE,
    schedule=Schedule(days=3, warmup_days=1),
    fault_plan=replace(FaultPlan.poisson(rate_per_day=3.0, days=3, seed=5),
                       transient_refusal_prob=0.2))

#: Golden pins of the sharded runs above — sharded mode's own digests,
#: deliberately distinct from the unsharded pins in ``tests/faults``.
#: Regenerate (only for a deliberate semantic change) by running the
#: configs through :func:`run_sharded` and printing ``digests``.
GOLDEN_BASELINE = (
    "6486b94b67372df749178a27305cb10ceb2512aaf2cbfed00bd2595f5c03265d",
    "b001705bffae5bd2f6dac78b083f095d273d2e9eb7e5323395e4f6176a943c3c")
GOLDEN_CHAOS = (
    "209f8ebe3f6937d031f6cb3392a7f8ed9db2cdafa22f40eef79084a42151f266",
    "bfcf60db3a683cfb361c68910e0b83a23de8fa0bf577c6560af4df93967dc8ba")


def digests(result):
    return (run_result_digest(result), fault_summary_digest(result.faults))


# ----------------------------------------------------------------------
# partitioning is derived, not drawn
# ----------------------------------------------------------------------
def test_partitions_are_deterministic_and_exact():
    first = build_partitions(BASELINE)
    second = build_partitions(BASELINE)
    assert [p.region for p in first] == [p.region for p in second]
    assert [p.config for p in first] == [p.config for p in second]
    for a, b in zip(first, second):
        assert np.array_equal(a.player_ids, b.player_ids)
    # The partitions cover every player exactly once...
    covered = np.concatenate([p.player_ids for p in first])
    assert sorted(covered.tolist()) == list(range(BASELINE.num_players))
    # ...and the infrastructure split is exact.
    assert sum(p.config.num_supernodes for p in first) == \
        BASELINE.num_supernodes
    # Per-partition seeds derive from the run seed, not from each other.
    seeds = [p.config.seed for p in first]
    assert len(set(seeds)) == len(seeds)


def test_partition_populations_keep_global_latencies():
    for partition in build_partitions(BASELINE):
        topo = partition.population.topology
        # All datacenters stay visible so nearest-DC latency matches
        # what each player saw in the global topology.
        assert topo.datacenter_coords.shape[0] == BASELINE.num_datacenters
        assert topo.player_coords.shape[0] == len(partition.player_ids)


# ----------------------------------------------------------------------
# shard count is worker parallelism only
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config, golden",
                         [(BASELINE, GOLDEN_BASELINE),
                          (CHAOS, GOLDEN_CHAOS)],
                         ids=["baseline", "chaos"])
def test_shard_counts_are_bit_identical(config, golden):
    one = run_sharded(config, shards=1)
    two = run_sharded(config, shards=2)
    four = run_sharded(config, shards=4)
    assert digests(one) == digests(two) == digests(four) == golden
    assert one.faults.conserved()


def test_runner_wrapper_matches_core():
    days = BASELINE.schedule.days
    assert digests(run_sharded_config(BASELINE, days, shards=2)) == \
        digests(run_sharded(BASELINE, days, shards=1))


# ----------------------------------------------------------------------
# merged accounting is consistent
# ----------------------------------------------------------------------
def test_merge_relabels_players_and_sums_days():
    partitions = build_partitions(BASELINE)
    merged = run_sharded(BASELINE, shards=1)
    players = {record.player for record in merged.sessions}
    assert players <= set(range(BASELINE.num_players))
    # Sessions from more than one partition survive the merge.
    owners = {next(i for i, p in enumerate(partitions)
                   if player in set(p.player_ids.tolist()))
              for player in players}
    assert len(owners) == len(partitions)
    for day in merged.days:
        assert day.online_players == \
            day.supernode_players + day.cloud_players


def test_merge_validates_shapes():
    partitions = build_partitions(BASELINE)
    with pytest.raises(ValueError, match="one result per partition"):
        merge_results([], partitions)


# ----------------------------------------------------------------------
# checkpoint/resume composes with sharding
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [BASELINE, CHAOS],
                         ids=["baseline", "chaos"])
def test_sharded_resume_is_bit_identical(tmp_path, config):
    days = config.schedule.days
    expected = digests(run_sharded(config, days, shards=1))
    checkpointed = run_sharded(config, days, shards=1,
                               checkpoint_dir=tmp_path)
    assert digests(checkpointed) == expected  # the hook never perturbs
    # Simulate an interruption after day 0: drop every later snapshot.
    for shard_dir in sorted(tmp_path.iterdir()):
        for snapshot in sorted(shard_dir.glob("checkpoint-day*.json"))[1:]:
            snapshot.unlink()
    resumed = resume_sharded(config, tmp_path, days=days, shards=1)
    assert digests(resumed) == expected


def test_scenario_sharded_resume_keeps_the_configure_hook(tmp_path):
    """A flash crowd must survive a resume through ``resume_sharded``:
    it rides in the config's workload, so the rebuilt partitions carry
    it with no ``configure`` hook at all."""
    compiled = compile_scenario(Scenario.from_dict({
        "version": 1, "name": "resume-crowd", "seed": 5,
        "population": {"daily_participants": 60},
        "schedule": {"days": 3, "warmup_days": 1},
        "workload": {"flash_crowds": [
            {"day": 2, "subcycle": 20, "players": 40}]}}))
    config, days = compiled.config, compiled.days
    expected = digests(run_sharded_config(config, days, shards=1))
    run_sharded_config(config, days, shards=1, checkpoint_dir=tmp_path)

    def resume(config):
        # Interrupt after day 0 (the resume re-writes later snapshots).
        for shard_dir in sorted(tmp_path.iterdir()):
            for snapshot in sorted(
                    shard_dir.glob("checkpoint-day*.json"))[1:]:
                snapshot.unlink()
        return digests(resume_sharded(config, tmp_path, days=days))

    assert resume(config) == expected
    # A config without the crowd resumes without it: the test bites.
    crowdless = config.with_(workload=replace(config.workload,
                                              flash_crowds=()))
    assert resume(crowdless) != expected


def test_sharded_resume_from_missing_dirs_runs_fresh(tmp_path):
    days = BASELINE.schedule.days
    expected = digests(run_sharded(BASELINE, days, shards=1))
    # No checkpoints at all: every partition runs from scratch.
    assert digests(resume_sharded(BASELINE, tmp_path / "nothing",
                                  days=days)) == expected


# ----------------------------------------------------------------------
# the runner self-heals: dead and stalled workers are replaced
# ----------------------------------------------------------------------
#: A small 2-region config so the healing tests stay fast.
TINY = cloudfog_advanced(
    num_players=120, num_datacenters=2, num_supernodes=8, seed=3,
    schedule=Schedule(days=2, warmup_days=1))


@pytest.fixture
def _pooled(monkeypatch):
    """Force the pooled supervisor path even on a 1-CPU test box."""
    import repro.core.shard as shard_module

    monkeypatch.setattr(shard_module.os, "cpu_count", lambda: 8)


def test_sigkilled_worker_heals_to_golden(tmp_path, monkeypatch, _pooled):
    """A worker SIGKILLed mid-run is restarted from its checkpoint and
    the merged result matches the uninterrupted golden pin bit for bit
    — the acceptance criterion of the self-healing runner."""
    sentinel = tmp_path / "killed"
    monkeypatch.setenv("REPRO_SHARD_TEST_KILL", f"1:1:{sentinel}")
    result = run_sharded(CHAOS, shards=3, checkpoint_dir=tmp_path / "ckpt")
    assert sentinel.exists()  # the kill really happened
    assert digests(result) == GOLDEN_CHAOS
    assert result.faults.conserved()


def test_sigkilled_worker_without_checkpoints_restarts_fresh(
        tmp_path, monkeypatch, _pooled):
    """With no checkpoint directory the healed partition replays from
    scratch — slower, but still bit-identical."""
    sentinel = tmp_path / "killed"
    monkeypatch.setenv("REPRO_SHARD_TEST_KILL", f"0:0:{sentinel}")
    result = run_sharded(BASELINE, shards=3)
    assert sentinel.exists()
    assert digests(result) == GOLDEN_BASELINE


def test_stalled_worker_is_recycled(tmp_path, monkeypatch, _pooled):
    """A worker that wedges (alive but silent) trips the heartbeat:
    no completions and no new checkpoints for a whole window, so the
    supervisor terminates the pool and resumes from checkpoint."""
    expected = digests(run_sharded(TINY, shards=1))
    sentinel = tmp_path / "hung"
    monkeypatch.setenv("REPRO_SHARD_TEST_HANG", f"0:0:{sentinel}")
    result = run_sharded(TINY, shards=2, checkpoint_dir=tmp_path / "ckpt",
                         heartbeat_timeout_s=1.0)
    assert sentinel.exists()
    assert digests(result) == expected


def test_restart_budget_exhaustion_raises(tmp_path, monkeypatch, _pooled):
    sentinel = tmp_path / "killed"
    monkeypatch.setenv("REPRO_SHARD_TEST_KILL", f"0:0:{sentinel}")
    with pytest.raises(RuntimeError, match="giving up"):
        run_sharded(TINY, shards=2, checkpoint_dir=tmp_path / "ckpt",
                    max_restarts=0)


def test_healed_run_resumes_from_valid_snapshot_despite_corruption(
        tmp_path, monkeypatch, _pooled):
    """Corrupting the killed shard's newest checkpoint *after* the kill
    cannot be raced here, so this pins the fallback at the resume layer
    instead: a corrupt latest snapshot falls back to the previous day's
    (see test_checkpoint.py for latest_valid_checkpoint itself)."""
    days = CHAOS.schedule.days
    expected = digests(run_sharded(CHAOS, days, shards=1))
    run_sharded(CHAOS, days, shards=1, checkpoint_dir=tmp_path)
    for shard_dir in sorted(tmp_path.iterdir()):
        newest = sorted(shard_dir.glob("checkpoint-day*.json"))[-1]
        newest.write_text(newest.read_text()[:-40])  # truncate: corrupt
    resumed = resume_sharded(CHAOS, tmp_path, days=days)
    assert digests(resumed) == expected


# ----------------------------------------------------------------------
# pooled workers bring their metrics home
# ----------------------------------------------------------------------
def _observed(config, **kwargs):
    """Run with observability on; return the result and the parent's
    metrics dump."""
    obs.enable()
    try:
        result = run_sharded(config, **kwargs)
        return result, obs.get_registry().as_dict()
    finally:
        obs.disable()


def test_pooled_metrics_match_the_one_shard_run(_pooled):
    """Each worker's metrics dump merges into the parent registry in
    partition order, so 1, 2 and 4 shards leave the same metrics."""
    _, one = _observed(BASELINE, shards=1)
    assert sum(e["value"] for e in one["repro_sessions_total"]) > 0
    for shards in (2, 4):
        result, dump = _observed(BASELINE, shards=shards)
        assert digests(result) == GOLDEN_BASELINE
        assert_dumps_match(dump, one)


def test_healed_worker_reports_the_surviving_attempt(
        tmp_path, monkeypatch, _pooled):
    """A SIGKILLed worker's metrics die with it; its partition restarts
    from scratch (no checkpoints) and the parent holds that surviving
    attempt's dump once — the 1-shard metrics plus the restart count."""
    _, expected = _observed(BASELINE, shards=1)
    sentinel = tmp_path / "killed"
    monkeypatch.setenv("REPRO_SHARD_TEST_KILL", f"0:0:{sentinel}")
    result, dump = _observed(BASELINE, shards=3)
    assert sentinel.exists()
    assert digests(result) == GOLDEN_BASELINE
    assert dump.pop("repro_shard_restarts_total")[0]["value"] >= 1
    assert_dumps_match(dump, expected)


def test_checkpoint_healed_worker_carries_its_metrics(
        tmp_path, monkeypatch, _pooled):
    """A worker SIGKILLed after its day-1 checkpoint resumes from it, and
    from the metrics dump that checkpoint carries: the parent holds the
    1-shard metrics (same cadence of saves) plus the restart and
    checkpoint-load counts."""
    _, expected = _observed(CHAOS, shards=1, checkpoint_dir=tmp_path / "one")
    sentinel = tmp_path / "killed"
    monkeypatch.setenv("REPRO_SHARD_TEST_KILL", f"0:1:{sentinel}")
    result, dump = _observed(CHAOS, shards=3,
                             checkpoint_dir=tmp_path / "healed")
    assert sentinel.exists()
    assert digests(result) == GOLDEN_CHAOS
    assert dump["repro_sessions_total"] == expected["repro_sessions_total"]
    assert dump.pop("repro_shard_restarts_total")[0]["value"] >= 1
    assert dump.pop("repro_checkpoint_loads_total")[0]["value"] >= 1
    # The snapshot holds host-timed assignment walls, so its encoded
    # size differs by a few bytes between two runs.
    for metrics in (dump, expected):
        assert metrics.pop("repro_checkpoint_bytes")[0]["value"] > 0
    assert_dumps_match(dump, expected)


def test_in_process_resume_counts_each_partition_once(tmp_path):
    """The in-process runner runs the partitions one after another under
    one live registry, yet each partition's checkpoints carry its own
    metrics only: resuming every partition from its day-1 checkpoint
    leaves the uninterrupted metrics plus one load per partition."""
    _, expected = _observed(CHAOS, shards=1, checkpoint_dir=tmp_path)
    for shard_dir in tmp_path.iterdir():
        sorted(shard_dir.glob("checkpoint-day*.json"))[-1].unlink()
    obs.enable()
    try:
        result = resume_sharded(CHAOS, tmp_path)
        dump = obs.get_registry().as_dict()
    finally:
        obs.disable()
    assert digests(result) == GOLDEN_CHAOS
    assert dump["repro_sessions_total"] == expected["repro_sessions_total"]
    loads = dump.pop("repro_checkpoint_loads_total")
    assert loads[0]["value"] == len(build_partitions(CHAOS))
    assert_dumps_match(dump, expected)
