"""Tests for repro.core.accounting: result containers, load timelines
and the bandwidth/egress arithmetic."""

import numpy as np
import pytest

from repro.core import ConnectionKind, cdn, cloudfog_basic
from repro.core.accounting import (
    DEFAULT_DC_EGRESS_MBPS,
    DayMetrics,
    RunResult,
    SessionRecord,
    SweepLoads,
    cloud_bandwidth,
    cloud_egress_budget,
    summarize_day,
)
from repro.core.state import SimState

from ..helpers.sessions import log_of

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


def test_empty_result_properties_raise():
    with pytest.raises(ValueError):
        _ = RunResult().mean_continuity


def test_aggregate_cache_invalidated_by_day_count():
    result = RunResult()
    result.days.append(DayMetrics(day=0, online_players=10,
                                  mean_continuity=0.5))
    assert result.mean_continuity == 0.5
    result.days.append(DayMetrics(day=1, online_players=10,
                                  mean_continuity=1.0))
    assert result.mean_continuity == 0.75


def test_sweep_loads_rows_map_live_supernodes():
    state = SimState(cloudfog_basic(**SMALL))
    loads = SweepLoads(state.live_supernodes, hours=24)
    assert loads.counts.shape == (len(state.live_supernodes), 26)
    for row, sid in enumerate(state.live_supernodes):
        assert loads.row(sid) == row
    assert loads.row(10**6) is None


def _record(player, kind, continuity):
    return SessionRecord(
        player=player, day=0, game="ArenaStrike", kind=kind, target=0,
        response_latency_ms=50.0, server_latency_ms=5.0,
        continuity=continuity, satisfied=continuity >= 0.95,
        join_latency_ms=None)


def test_summarize_day_aggregates_records():
    state = SimState(cloudfog_basic(**SMALL))
    loads = SweepLoads(state.live_supernodes, hours=24)
    cloud_rate = np.zeros(26)
    cloud_rate[1:25] = 12.0
    records = log_of([_record(0, ConnectionKind.SUPERNODE, 1.0),
                      _record(1, ConnectionKind.CLOUD, 0.5)])
    metrics = summarize_day(state, 3, records, cloud_rate, loads)
    assert metrics.day == 3
    assert metrics.online_players == 2
    assert metrics.supernode_players == 1
    assert metrics.cloud_players == 1
    assert metrics.mean_continuity == 0.75
    assert metrics.cloud_bandwidth_mbps == pytest.approx(
        cloud_bandwidth(state, cloud_rate, loads))


def test_cloud_egress_budget_by_mode():
    fog = SimState(cloudfog_basic(**SMALL))
    assert cloud_egress_budget(fog) == (
        fog.config.num_datacenters * DEFAULT_DC_EGRESS_MBPS)
    edge = SimState(cdn(10, num_players=100, seed=3))
    assert cloud_egress_budget(edge) == (
        len(edge.cdn_coords) * DEFAULT_DC_EGRESS_MBPS)


def test_cloud_bandwidth_counts_serving_supernodes():
    state = SimState(cloudfog_basic(**SMALL))
    loads = SweepLoads(state.live_supernodes, hours=24)
    cloud_rate = np.zeros(26)
    bare = cloud_bandwidth(state, cloud_rate, loads)
    assert bare == 0.0
    # One supernode serving one player all day adds Λ per subcycle.
    loads.counts[0, 1:25] = 1.0
    with_update = cloud_bandwidth(state, cloud_rate, loads)
    assert with_update > 0.0
