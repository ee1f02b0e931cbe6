"""Observability across process workers: the satellite pin.

The supervised pool (``repro.core.shard.run_supervised``) carries the
parent's obs switch into every worker, each task runs under a fresh
worker-local runtime, and the per-worker metric dumps merge back into
the parent registry in task order — so an instrumented parallel sweep
produces the same counters, histograms and (bit-identical) results as a
sequential one.
"""

import pytest

from repro import obs
from repro.experiments.parallel import VariantTask, run_variants
from repro.experiments.testbeds import Testbed
from repro.obs.metrics import MetricsRegistry

from ..helpers.metrics import assert_dumps_match

TINY = Testbed(name="tiny", num_players=60, num_datacenters=2,
               num_supernodes=5, supernode_capable_share=0.5,
               jitter_fraction=0.15)


@pytest.fixture(autouse=True)
def _restore_null_observability():
    yield
    obs.disable()


def tiny_tasks():
    return [VariantTask(variant=v, testbed=TINY, seed=2, days=1)
            for v in ("Cloud", "CloudFog/B", "CloudFog/A")]


def _run_dump(jobs):
    obs.enable()
    results = run_variants(tiny_tasks(), jobs=jobs)
    dump = obs.get_registry().as_dict()
    obs.disable()
    return results, dump


def _run_scoped(dump):
    """Drop sweep-orchestration metrics: the parent-side sweep counter
    exists either way, but only run-level metrics cross the pool."""
    return {name: entries for name, entries in dump.items()
            if name != "repro_sweep_tasks_total"}


def test_parallel_metrics_match_sequential():
    sequential_results, sequential = _run_dump(jobs=1)
    parallel_results, parallel = _run_dump(jobs=2)
    assert_dumps_match(_run_scoped(parallel), _run_scoped(sequential))
    assert sequential["repro_sweep_tasks_total"][0]["value"] == 3
    assert parallel["repro_sweep_tasks_total"][0]["value"] == 3
    for seq, par in zip(sequential_results, parallel_results):
        assert list(seq.sessions) == list(par.sessions)
        assert seq.join_latencies_ms == par.join_latencies_ms


def test_parallel_workers_actually_report():
    """The merge is real: joins/sessions counted inside workers land in
    the parent registry (they can only have come over the pool)."""
    obs.enable()
    run_variants(tiny_tasks(), jobs=2)
    dump = obs.get_registry().as_dict()
    assert sum(e["value"] for e in dump["repro_sessions_total"]) > 0
    assert dump["repro_join_latency_ms"][0]["count"] > 0


def test_disabled_parent_spawns_disabled_workers():
    assert not obs.enabled()
    results = run_variants(tiny_tasks(), jobs=2)
    assert len(results) == 3
    assert not obs.enabled()
    assert obs.get_registry() is obs.NULL_REGISTRY


def test_merge_dump_unit_semantics():
    left, right = MetricsRegistry(), MetricsRegistry()
    left.counter("c", k="x").inc(2)
    right.counter("c", k="x").inc(3)
    right.gauge("g").set(7)
    right.histogram("h", buckets=(1.0, 5.0)).observe(3.0)
    left.merge_dump(right.as_dict())
    assert left.counter("c", k="x").value == 5
    assert left.gauge("g").value == 7
    merged = left.histogram("h", buckets=(1.0, 5.0))
    assert merged.count == 1 and merged.counts == [0, 1, 0]
    with pytest.raises(ValueError, match="bucket mismatch"):
        left.merge_dump({"h": [{"labels": {}, "kind": "histogram",
                                "buckets": [2.0], "counts": [0, 0],
                                "sum": 0.0, "count": 0}]})
    with pytest.raises(ValueError, match="unknown kind"):
        left.merge_dump({"x": [{"labels": {}, "kind": "mystery",
                                "value": 1}]})
