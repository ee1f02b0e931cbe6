"""Parallel sweep runner: same bits as sequential, in task order."""

import pytest

from repro.core import shard
from repro.experiments import parallel
from repro.experiments.parallel import (
    MIN_TASK_PLAYER_DAYS,
    VariantTask,
    _chunk_evenly,
    resolve_jobs,
    run_variants,
)
from repro.experiments.runner import run_variant
from repro.experiments.testbeds import Testbed
from repro.workload.population import build_population

TINY = Testbed(name="tiny", num_players=60, num_datacenters=2,
               num_supernodes=5, supernode_capable_share=0.5,
               jitter_fraction=0.15)


def tiny_tasks():
    return [VariantTask(variant=v, testbed=TINY, seed=2, days=1)
            for v in ("Cloud", "CloudFog/B", "CloudFog/A")]


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs(0) >= 1  # all cores
    with pytest.raises(ValueError):
        resolve_jobs(-1)


def reference(tasks):
    """One uncached ``run_variant`` per task: the sequential reference."""
    return [run_variant(task.variant, task.testbed, seed=task.seed,
                        days=task.days, **task.overrides)
            for task in tasks]


def test_parallel_matches_sequential_bitwise():
    tasks = tiny_tasks()
    expected = reference(tasks)
    for jobs in (1, 2):
        results = run_variants(tasks, jobs=jobs)
        assert len(results) == len(tasks)
        for ref, got in zip(expected, results):
            assert list(ref.sessions) == list(got.sessions)
            assert ref.days == got.days
            assert ref.join_latencies_ms == got.join_latencies_ms


def test_sequential_sweep_builds_each_population_once(monkeypatch):
    """Two variants of one population share one build in-process."""
    from repro.core import state as state_module

    builds = []

    def counting(*args, **kwargs):
        builds.append(args[1:])
        return build_population(*args, **kwargs)

    monkeypatch.setattr(state_module, "build_population", counting)
    tasks = tiny_tasks()[1:]
    results = run_variants(tasks, jobs=1)
    assert len(builds) == 1
    for ref, got in zip(reference(tasks), results):
        assert list(ref.sessions) == list(got.sessions)


def test_results_come_back_in_task_order():
    tasks = tiny_tasks()
    results = run_variants(tasks, jobs=2)
    # Cloud serves nobody via supernodes; the CloudFog variants must.
    assert results[0].supernode_coverage == 0.0
    assert results[1].supernode_coverage > 0.0
    assert results[2].supernode_coverage > 0.0


def test_run_variants_empty_task_list():
    assert run_variants([], jobs=4) == []


def test_seed_tasks_keep_order_and_match_sequential():
    expected = [run_variant("CloudFog/B", TINY, seed=seed, days=1)
                for seed in (0, 1)]
    tasks = [VariantTask(variant="CloudFog/B", testbed=TINY, seed=seed,
                         days=1) for seed in (0, 1)]
    sequential = run_variants(tasks)
    parallel = run_variants(tasks, jobs=2)
    assert len(sequential) == 2
    for ref, seq, par in zip(expected, sequential, parallel):
        assert list(ref.sessions) == list(seq.sessions) == list(par.sessions)
    # Different seeds produce genuinely different runs.
    assert list(sequential[0].sessions) != list(sequential[1].sessions)


def test_variant_task_overrides_forwarded():
    task = VariantTask(variant="CloudFog/B", testbed=TINY, seed=0, days=1,
                       overrides={"num_supernodes": 2})
    result, = run_variants([task], jobs=1)
    targets = {record.target for record in result.sessions
               if record.kind.name == "SUPERNODE"}
    assert targets <= {0, 1}


# ----------------------------------------------------------------------
# honest work planning (the sweep-speedup regression)
# ----------------------------------------------------------------------
# BENCH_perf.json once recorded sweep.speedup 0.70: a pool of workers,
# each paying interpreter + population start-up for a task too small to
# amortize it.  The fix plans the work — tiny sweeps never start a pool.
class _PoolMustNotStart:
    def __init__(self, *args, **kwargs):
        raise AssertionError("ProcessPoolExecutor started for a sweep "
                             "too small to amortize workers")


def test_chunk_evenly_contiguous_and_exact():
    tasks = tiny_tasks() * 3  # 9 tasks
    for chunks in (1, 2, 4, 9, 12):
        sliced = _chunk_evenly(tasks, chunks)
        assert len(sliced) == min(chunks, len(tasks))
        assert [t for chunk in sliced for t in chunk] == tasks
        sizes = [len(chunk) for chunk in sliced]
        assert max(sizes) - min(sizes) <= 1
        assert all(size > 0 for size in sizes)


def test_small_sweep_never_starts_a_pool(monkeypatch):
    tasks = tiny_tasks()  # 60 players x 1 day << MIN_TASK_PLAYER_DAYS
    assert TINY.num_players * 1 < MIN_TASK_PLAYER_DAYS
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 4)  # cores exist
    monkeypatch.setattr(shard, "ProcessPoolExecutor", _PoolMustNotStart)
    sequential = run_variants(tasks, jobs=1)
    inprocess = run_variants(tasks, jobs=4)
    for seq, par in zip(sequential, inprocess):
        assert list(seq.sessions) == list(par.sessions)
        assert seq.days == par.days


def test_workers_clamped_to_core_count(monkeypatch):
    """One core -> one worker, even for big sweeps asking for many."""
    monkeypatch.setattr(parallel, "MIN_TASK_PLAYER_DAYS", 0)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 1)
    monkeypatch.setattr(shard, "ProcessPoolExecutor", _PoolMustNotStart)
    results = run_variants(tiny_tasks(), jobs=8)
    assert len(results) == 3


def test_pool_path_matches_sequential_bitwise(monkeypatch):
    """Force the chunked pool path and pin it against jobs=1."""
    tasks = tiny_tasks()
    sequential = run_variants(tasks, jobs=1)
    monkeypatch.setattr(parallel, "MIN_TASK_PLAYER_DAYS", 0)
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
    pooled = run_variants(tasks, jobs=2)
    assert len(pooled) == len(tasks)
    for seq, par in zip(sequential, pooled):
        assert list(seq.sessions) == list(par.sessions)
        assert seq.days == par.days
        assert seq.join_latencies_ms == par.join_latencies_ms
