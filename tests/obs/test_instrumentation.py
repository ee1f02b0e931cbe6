"""Integration: the sim stack feeds spans/metrics, and — crucially —
instrumentation changes no simulated result (bit-identical RNG streams).
"""

import pytest

from repro import obs
from repro.experiments.runner import run_config, run_variant
from repro.experiments.testbeds import Testbed

TINY = Testbed(name="tiny", num_players=80, num_datacenters=2,
               num_supernodes=6, supernode_capable_share=0.3,
               jitter_fraction=0.0)


def _fingerprint(result):
    return (
        result.mean_response_latency_ms,
        result.mean_server_latency_ms,
        result.mean_continuity,
        result.mean_satisfied_ratio,
        result.mean_cloud_bandwidth_mbps,
        result.supernode_coverage,
        tuple(result.join_latencies_ms),
        tuple(result.supernode_join_latencies_ms),
    )


def test_instrumented_run_is_bit_identical_to_uninstrumented():
    """The acceptance-criteria determinism pin: same seed, same numbers,
    observability on or off."""
    assert not obs.enabled()
    baseline = run_variant("CloudFog/B", TINY, seed=3, days=2)
    obs.enable()
    instrumented = run_variant("CloudFog/B", TINY, seed=3, days=2)
    assert _fingerprint(baseline) == _fingerprint(instrumented)
    assert baseline.days == instrumented.days
    assert list(baseline.sessions) == list(instrumented.sessions)


def test_run_variant_emits_nested_spans():
    tracer, registry = obs.enable()
    run_variant("CloudFog/B", TINY, seed=1, days=2)
    spans = {span.span_id: span for span in tracer.finished}
    tops = [s for s in spans.values() if s.name == "run_variant"]
    assert len(tops) == 1
    assert tops[0].attrs["variant"] == "CloudFog/B"
    days = [s for s in spans.values() if s.name == "run_day"]
    assert len(days) == 2

    def ancestors(span):
        while span.parent_id is not None:
            span = spans[span.parent_id]
            yield span.name

    for day_span in days:
        assert "run_variant" in list(ancestors(day_span))
    # the day decomposes into traced phases
    names = {s.name for s in spans.values()}
    assert {"cycle_day", "sweep_day", "score_sessions",
            "day_plans"} <= names


def test_run_emits_session_and_join_metrics():
    _, registry = obs.enable()
    run_variant("CloudFog/B", TINY, seed=1, days=2)
    dump = registry.as_dict()
    assert "repro_joins_total" in dump
    assert "repro_sessions_total" in dump
    total_sessions = sum(e["value"] for e in dump["repro_sessions_total"])
    assert total_sessions > 0
    hist = dump["repro_join_latency_ms"][0]
    assert hist["count"] == sum(hist["counts"])
    assert "repro_live_supernodes" in dump


def test_run_config_wraps_custom_configs_in_run_variant_span():
    from repro.core.config import cloudfog_basic

    tracer, _ = obs.enable()
    config = cloudfog_basic(num_players=60, num_supernodes=4, seed=2)
    result = run_config(config, days=1, label="ablation-x")
    assert result.days
    (top,) = [s for s in tracer.finished if s.name == "run_variant"]
    assert top.attrs["variant"] == "ablation-x"
    with pytest.raises(ValueError):
        run_config(config, days=0)


def test_failures_count_migrations():
    from repro.faults.plan import FaultEvent, FaultPlan

    _, registry = obs.enable()
    failed = TINY.num_supernodes // 2
    plan = FaultPlan(events=(
        FaultEvent(day=1, subcycle=21, kind="crash", count=failed),))
    result = run_variant("CloudFog/B", TINY, seed=5, days=2,
                         fault_plan=plan)
    summary = result.faults
    assert summary.recovered
    assert summary.conserved()
    dump = registry.as_dict()
    assert dump["repro_supernode_failures_total"][0]["value"] == failed
    assert dump["repro_fault_displaced_total"][0]["value"] == \
        summary.displaced
    # A migration is a recovery onto a supernode: the counter and both
    # latency histograms see exactly the recovered displacements.
    assert dump["repro_fault_recovered_total"][0]["value"] == \
        summary.recovered
    assert dump["repro_migrations_total"][0]["value"] == summary.recovered
    assert dump["repro_migration_latency_ms"][0]["count"] == \
        summary.recovered
    assert dump["repro_time_to_recover_ms"][0]["count"] == \
        summary.recovered
