"""Parser-level validation of the Prometheus text exposition.

Instead of substring checks, these tests parse the full exposition the
way a scraper would — TYPE headers, label unescaping, histogram series —
and assert the structural invariants Prometheus relies on: every sample
belongs to a declared family, ``le`` buckets are cumulative and
monotone, and ``_sum`` / ``_count`` agree with the observations.
"""

import math
import re
from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import TimeSeriesStore

from .rows import RowLog

SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? (?P<value>\S+)$")
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<kind>counter|gauge|histogram)$")

_UNESCAPE = {"\\": "\\", "n": "\n", '"': '"'}


def parse_labels(body: str) -> dict:
    """Parse a label body, honouring the exposition-format escapes."""
    labels = {}
    i = 0
    while i < len(body):
        eq = body.index("=", i)
        name = body[i:eq]
        assert body[eq + 1] == '"', f"unquoted label value in {body!r}"
        j = eq + 2
        value = []
        while body[j] != '"':
            if body[j] == "\\":
                value.append(_UNESCAPE[body[j + 1]])
                j += 2
            else:
                value.append(body[j])
                j += 1
        labels[name] = "".join(value)
        i = j + 1
        if i < len(body):
            assert body[i] == ",", f"bad label separator in {body!r}"
            i += 1
    return labels


def parse_exposition(text: str):
    """Return (types, samples) and assert line-level wellformedness."""
    types: dict[str, str] = {}
    samples: list[tuple[str, dict, float]] = []
    for line in text.splitlines():
        header = TYPE_RE.match(line)
        if header:
            assert header["name"] not in types, \
                f"duplicate TYPE header for {header['name']}"
            types[header["name"]] = header["kind"]
            continue
        match = SAMPLE_RE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        labels = parse_labels(match["labels"]) if match["labels"] else {}
        samples.append((match["name"], labels, float(match["value"])))
    return types, samples


def _family(sample_name: str, types: dict) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        base = sample_name.removesuffix(suffix)
        if base != sample_name and types.get(base) == "histogram":
            return base
    return sample_name


def _loaded_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_requests_total", route="join").inc(3)
    registry.counter("repro_requests_total", route="leave").inc(1)
    registry.gauge("repro_live_supernodes").set(12)
    hist = registry.histogram("repro_join_latency_ms",
                              buckets=(10.0, 50.0, 100.0))
    for value in (5.0, 45.0, 60.0, 500.0):
        hist.observe(value)
    return registry


def test_every_sample_belongs_to_a_declared_family():
    types, samples = parse_exposition(_loaded_registry().to_prometheus())
    assert types == {"repro_requests_total": "counter",
                     "repro_live_supernodes": "gauge",
                     "repro_join_latency_ms": "histogram"}
    for name, _, _ in samples:
        assert _family(name, types) in types, \
            f"sample {name} has no TYPE header"


def test_type_header_precedes_its_samples():
    text = _loaded_registry().to_prometheus()
    seen_types = set()
    types_all, _ = parse_exposition(text)
    for line in text.splitlines():
        header = TYPE_RE.match(line)
        if header:
            seen_types.add(header["name"])
            continue
        name = SAMPLE_RE.match(line)["name"]
        assert _family(name, types_all) in seen_types


def test_histogram_buckets_are_cumulative_and_consistent():
    types, samples = parse_exposition(_loaded_registry().to_prometheus())
    buckets = [(labels["le"], value) for name, labels, value in samples
               if name == "repro_join_latency_ms_bucket"]
    bounds = [le for le, _ in buckets]
    assert bounds == ["10.0", "50.0", "100.0", "+Inf"]
    counts = [count for _, count in buckets]
    assert counts == sorted(counts), "le series must be cumulative"
    assert counts == [1, 2, 3, 4]
    (total,) = [v for n, _, v in samples
                if n == "repro_join_latency_ms_count"]
    assert counts[-1] == total, "+Inf bucket must equal _count"
    (acc,) = [v for n, _, v in samples if n == "repro_join_latency_ms_sum"]
    assert acc == pytest.approx(5.0 + 45.0 + 60.0 + 500.0)
    assert math.isfinite(acc)


def test_label_values_round_trip_the_exposition_escapes():
    registry = MetricsRegistry()
    nasty = 'a\\b"c\nd'
    registry.counter("repro_escaped_total", path=nasty).inc()
    text = registry.to_prometheus()
    assert r'path="a\\b\"c\nd"' in text
    _, samples = parse_exposition(text)
    (labels,) = [labels for name, labels, _ in samples
                 if name == "repro_escaped_total"]
    assert labels == {"path": nasty}


def test_day_series_gauges_expose_per_region_labels():
    """The time-series mirror gauges scrape as valid per-region series."""
    registry = MetricsRegistry()
    store = TimeSeriesStore(registry=registry)
    record = SimpleNamespace(
        player=0, day=0, game="ArenaStrike", kind="supernode", target=0,
        response_latency_ms=88.0, server_latency_ms=44.0, continuity=0.95,
        satisfied=True, join_latency_ms=12.0)
    store.observe_day(day=0, records=RowLog([record]), region_of={0: 3},
                      cloud_bandwidth_mbps=5.5)
    types, samples = parse_exposition(registry.to_prometheus())
    assert types["repro_day_p95_response_latency_ms"] == "gauge"
    day_gauges = {(name, labels["region"]): value
                  for name, labels, value in samples
                  if name.startswith("repro_day_")}
    assert day_gauges[("repro_day_p95_response_latency_ms", "all")] == 88.0
    assert day_gauges[("repro_day_p95_response_latency_ms", "dc3")] == 88.0
    assert day_gauges[("repro_day_cloud_bandwidth_mbps", "all")] == 5.5
    assert day_gauges[("repro_day_sessions", "dc3")] == 1
