"""Unit tests of the per-day / per-region time-series store."""

from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeseries import (ALL_REGIONS, DaySample, NULL_TIMESERIES,
                                  TimeSeriesStore, percentile)
from repro.streaming.qoe import QoeModel
from repro.workload.games import GAME_CATALOGUE

from .rows import RowLog


class FlatQoe:
    """A stub MOS model: response latency / 100 ms as the score."""

    def session_mos(self, continuity, response_latency_ms,
                    requirement_ms, bitrate_kbps):
        return response_latency_ms / 100.0


def make_record(player, *, region=None, latency=100.0, continuity=0.99,
                satisfied=True, kind="supernode", join=None,
                game="ArenaStrike"):
    return SimpleNamespace(
        player=player, day=0, game=game, kind=kind, target=0,
        response_latency_ms=latency, server_latency_ms=latency / 2,
        continuity=continuity, satisfied=satisfied, join_latency_ms=join)


def test_percentile_nearest_rank():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.50) == 20.0
    assert percentile(values, 0.95) == 40.0
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    # No samples is "no data", not "instantly zero": a day without
    # recoveries must not report recovery_p95_ms == 0.0.
    assert percentile([], 0.95) is None
    with pytest.raises(ValueError):
        percentile(values, 1.5)


def test_observe_day_groups_by_region_with_all_first():
    store = TimeSeriesStore(qoe=FlatQoe())
    records = [make_record(0, latency=0.0), make_record(1),
               make_record(2, kind="cloud", latency=200.0)]
    region_of = {0: 0, 1: 1, 2: 1}
    samples = store.observe_day(
        day=0, records=RowLog(records), region_of=region_of,
        cloud_bandwidth_mbps=12.5,
        fault_deltas={"displaced": 2, "recovered": 1, "retries": 3},
        recovery_ms=[400.0, 800.0])
    assert [s.region for s in samples] == [ALL_REGIONS, "dc0", "dc1"]
    head = samples[0]
    assert head.sessions == 3
    assert head.supernode_sessions == 2
    assert head.cloud_sessions == 1
    assert head.cloud_bandwidth_mbps == 12.5
    assert head.faults_displaced == 2
    assert head.faults_recovered == 1
    assert head.fault_retries == 3
    assert head.recovery_p95_ms == 800.0
    assert head.mean_mos == pytest.approx(1.0)  # latencies 0, 100, 200
    assert head.min_mos == 0.0
    # region rows never carry run-wide fault accounting or bandwidth
    for sample in samples[1:]:
        assert sample.faults_displaced == 0
        assert sample.cloud_bandwidth_mbps == 0.0
    assert samples[2].sessions == 2


def test_join_count_and_latency_percentiles():
    store = TimeSeriesStore(qoe=FlatQoe())
    records = [make_record(i, latency=float(10 * (i + 1)),
                           join=5.0 if i % 2 else None)
               for i in range(10)]
    (sample,) = store.observe_day(day=3, records=RowLog(records))
    assert sample.joins == 5
    assert sample.p50_response_latency_ms == 50.0
    assert sample.p95_response_latency_ms == 100.0
    assert sample.p99_response_latency_ms == 100.0


def test_ring_buffer_drops_oldest_days():
    store = TimeSeriesStore(max_days=2, qoe=FlatQoe())
    for day in range(4):
        store.observe_day(day=day, records=RowLog([make_record(0)]))
    assert len(store) == 2
    assert [sample.day for sample in store.samples()] == [2, 3]
    with pytest.raises(ValueError):
        TimeSeriesStore(max_days=0)


def test_series_and_regions_query():
    store = TimeSeriesStore(qoe=FlatQoe())
    for day in range(3):
        store.observe_day(day=day, records=RowLog([make_record(0), make_record(1)]),
                          region_of={0: 1, 1: 0})
    assert store.regions() == [ALL_REGIONS, "dc0", "dc1"]
    assert [(s.day, s.sessions) for s in store.samples(ALL_REGIONS)] \
        == [(0, 2), (1, 2), (2, 2)]
    assert [(s.day, s.sessions) for s in store.samples("dc1")] \
        == [(0, 1), (1, 1), (2, 1)]


def test_day_without_recoveries_reports_none_not_zero():
    """Regression: a day with no recoveries used to report
    recovery_p95_ms == 0.0, letting a sub-second-recovery SLO pass
    trivially.  Empty samples are "no data" (None), and the gauges
    skip them instead of exporting a fake zero."""
    registry = MetricsRegistry()
    store = TimeSeriesStore(registry=registry, qoe=FlatQoe())
    (quiet,) = store.observe_day(day=0, records=RowLog([]), recovery_ms=[])
    assert quiet.recovery_p95_ms is None
    assert quiet.p95_response_latency_ms is None
    # None never reaches the registry: no latency gauge exists yet.
    assert not any(metric.name == "repro_day_p95_response_latency_ms"
                   for metric in registry)
    (busy,) = store.observe_day(day=1, records=RowLog([make_record(0)]),
                                recovery_ms=[640.0])
    assert busy.recovery_p95_ms == 640.0
    # A later empty day leaves the gauge at its last real value.
    store.observe_day(day=2, records=RowLog([]), recovery_ms=[])
    collected = {(metric.name, dict(metric.labels).get("region")):
                 metric.value for metric in registry}
    assert collected[("repro_day_p95_response_latency_ms",
                      "all")] == 100.0


def test_none_fields_round_trip_through_payload():
    store = TimeSeriesStore(qoe=FlatQoe())
    (sample,) = store.observe_day(day=0, records=RowLog([]), recovery_ms=[])
    assert sample.p95_response_latency_ms is None
    assert sample.recovery_p95_ms is None
    clone = TimeSeriesStore(qoe=FlatQoe())
    clone.load_payload(store.as_payload())
    assert clone.samples() == store.samples()


def test_payload_round_trip_is_exact():
    store = TimeSeriesStore(qoe=FlatQoe())
    store.observe_day(day=0, records=RowLog([make_record(0), make_record(5)]),
                      region_of={0: 0, 5: 2}, cloud_bandwidth_mbps=3.25,
                      fault_deltas={"degraded": 4}, recovery_ms=[123.5])
    payload = store.as_payload()
    clone = TimeSeriesStore(qoe=FlatQoe())
    clone.load_payload(payload)
    assert clone.as_payload() == payload
    assert clone.samples() == store.samples()  # frozen dataclass equality


def test_headline_gauges_mirror_latest_day():
    registry = MetricsRegistry()
    store = TimeSeriesStore(registry=registry, qoe=FlatQoe())
    store.observe_day(day=0, records=RowLog([make_record(2, latency=80.0)]),
                      region_of={2: 0}, cloud_bandwidth_mbps=7.0)
    dump = registry.as_dict()
    gauge = {tuple(sorted(e["labels"].items())): e["value"]
             for e in dump["repro_day_p95_response_latency_ms"]}
    assert gauge[(("region", "all"),)] == 80.0
    assert gauge[(("region", "dc0"),)] == 80.0
    bandwidth = {e["labels"]["region"]: e["value"]
                 for e in dump["repro_day_cloud_bandwidth_mbps"]}
    assert bandwidth["all"] == 7.0
    assert bandwidth["dc0"] == 0.0


def test_mos_uses_catalogue_qos():
    """The real QoE path: each session's MOS uses its game's catalogue
    row (latency requirement and bitrate)."""
    qoe = QoeModel()
    store = TimeSeriesStore(qoe=qoe)
    records = [make_record(0, game="ArenaStrike"),
               make_record(1, game="KingdomSaga")]
    (sample,) = store.observe_day(day=0, records=RowLog(records))
    expected = [qoe.session_mos(0.99, 100.0, game.latency_requirement_ms,
                                game.quality.bitrate_kbps)
                for game in (GAME_CATALOGUE[0], GAME_CATALOGUE[-1])]
    assert GAME_CATALOGUE[0].name == "ArenaStrike"
    assert GAME_CATALOGUE[-1].name == "KingdomSaga"
    assert expected[0] != expected[1]
    assert sample.min_mos == min(expected)
    assert sample.mean_mos == sum(expected) / 2


def test_null_store_is_inert():
    assert not NULL_TIMESERIES.enabled


def test_day_sample_dict_round_trip():
    store = TimeSeriesStore(qoe=FlatQoe())
    (sample,) = store.observe_day(day=1, records=RowLog([make_record(4)]))
    assert DaySample.from_dict(sample.as_dict()) == sample
