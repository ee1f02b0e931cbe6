"""Tests for the obs metrics registry: arithmetic, buckets, exposition."""

import json

import pytest

from repro.obs.metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


def test_counter_accumulates_and_rejects_decrease(registry):
    counter = registry.counter("repro_joins_total", kind="cloud")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_same_name_and_labels_share_one_instrument(registry):
    a = registry.counter("x_total", kind="a")
    b = registry.counter("x_total", kind="a")
    c = registry.counter("x_total", kind="b")
    assert a is b and a is not c
    a.inc()
    assert b.value == 1 and c.value == 0


def test_name_collision_across_kinds_raises(registry):
    registry.counter("thing")
    with pytest.raises(TypeError):
        registry.gauge("thing")


def test_gauge_moves_both_ways(registry):
    gauge = registry.gauge("repro_live_supernodes")
    gauge.set(10)
    gauge.set(7)
    assert gauge.value == 7


def test_histogram_bucket_edges_are_inclusive(registry):
    hist = registry.histogram("lat_ms", buckets=(10.0, 20.0))
    for value in (10.0, 10.0001, 20.0, 25.0, -3.0):
        hist.observe(value)
    # bucket layout: <=10, <=20, +Inf
    assert hist.counts == [2, 2, 1]
    assert hist.cumulative_counts() == [2, 4, 5]
    assert hist.count == 5
    assert hist.sum == pytest.approx(10.0 + 10.0001 + 20.0 + 25.0 - 3.0)


def test_histogram_requires_increasing_buckets():
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(5.0, 5.0))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=(5.0, 1.0))
    with pytest.raises(ValueError):
        Histogram("bad", buckets=())


def test_prometheus_exposition_format(registry):
    registry.counter("repro_joins_total", kind="cloud").inc(3)
    registry.gauge("repro_live_supernodes").set(7)
    registry.histogram("repro_join_latency_ms",
                       buckets=(100.0, 500.0)).observe(42.0)
    text = registry.to_prometheus()
    lines = text.strip().splitlines()
    assert "# TYPE repro_joins_total counter" in lines
    assert 'repro_joins_total{kind="cloud"} 3' in lines
    assert "repro_live_supernodes 7" in lines
    assert 'repro_join_latency_ms_bucket{le="100.0"} 1' in lines
    assert 'repro_join_latency_ms_bucket{le="+Inf"} 1' in lines
    assert "repro_join_latency_ms_count 1" in lines
    # every non-comment line parses as "name_or_name{labels} value"
    for line in lines:
        if line.startswith("#"):
            continue
        name, value = line.rsplit(" ", 1)
        assert name and float(value) is not None


def test_json_dump_round_trips(registry, tmp_path):
    registry.counter("c_total").inc(2)
    registry.histogram("h_ms", buckets=(1.0,)).observe(0.5)
    parsed = json.loads(registry.to_json())
    assert parsed["c_total"][0]["value"] == 2
    assert parsed["h_ms"][0]["counts"] == [1, 0]
    path = tmp_path / "metrics.json"
    registry.write_json(path)
    assert json.loads(path.read_text()) == parsed


def test_write_prometheus(registry, tmp_path):
    registry.counter("c_total").inc()
    path = tmp_path / "metrics.prom"
    registry.write_prometheus(path)
    assert "c_total 1" in path.read_text()


def test_registry_iteration_is_sorted(registry):
    registry.counter("b_total")
    registry.counter("a_total")
    assert [m.name for m in registry] == ["a_total", "b_total"]
    assert len(registry) == 2


def test_null_registry_is_inert():
    counter = NULL_REGISTRY.counter("anything", kind="x")
    counter.inc(100)
    assert counter.value == 0
    NULL_REGISTRY.gauge("g").set(5)
    NULL_REGISTRY.histogram("h").observe(1.0)
    # shared singletons: no per-call-site allocation
    assert NULL_REGISTRY.counter("a") is NULL_REGISTRY.counter("b")
