"""Batch session scoring pinned bit-identical to the scalar reference.

The vectorised scorer (:func:`repro.core.scoring.score_sessions_batch`)
is the only scoring path a run takes; the scalar loop kept verbatim
from the pre-batch implementation (the oracle
``scoring_oracle.score_sessions_scalar``) is swapped in for it here.
A whole run must produce *identical* ``SessionRecord`` and ``DayMetrics`` lists either
way — same seed, same bits — across every deployment mode, with and
without jitter, with and without cloud compression.
"""

import numpy as np
import pytest

from repro.core import config as configs
from repro.core import scoring
from repro.core.accounting import DayMetrics, RunResult, SweepLoads
from repro.core.system import CloudFogSystem
from repro.network.transport import TransportModel

from .scoring_oracle import score_sessions_scalar


def run_both(build, days=2, transport=None):
    """One run per scoring path from identical configs; return both."""
    results = []
    for scalar in (False, True):
        system = CloudFogSystem(build())
        if transport is not None:
            system.transport = transport
        with pytest.MonkeyPatch.context() as patch:
            if scalar:
                patch.setattr(scoring, "score_sessions_batch",
                              score_sessions_scalar)
            results.append(system.run(days=days))
    return results


MODES = {
    "cloudfog-basic": lambda: configs.cloudfog_basic(
        num_players=250, num_supernodes=16, seed=7),
    "cloudfog-advanced": lambda: configs.cloudfog_advanced(
        num_players=250, num_supernodes=16, seed=7),
    "cloud": lambda: configs.cloud_only(num_players=250, seed=7),
    "cloud-compressed": lambda: configs.cloud_compressed(
        num_players=250, seed=7),
    "cdn": lambda: configs.cdn(4, num_players=250, seed=7),
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_batch_run_bit_identical_to_scalar(mode):
    batch, scalar = run_both(MODES[mode])
    assert batch.sessions == scalar.sessions  # frozen dataclass ==
    assert batch.days == scalar.days


@pytest.mark.parametrize("jitter", [0.0, 0.3])
def test_batch_identical_without_and_with_heavy_jitter(jitter):
    transport = TransportModel(jitter_fraction=jitter)
    batch, scalar = run_both(MODES["cloudfog-advanced"],
                             transport=transport)
    assert batch.sessions == scalar.sessions
    assert batch.days == scalar.days


def test_sweep_loads_rows_track_live_supernodes():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=100, num_supernodes=8, seed=1))
    hours = system.config.schedule.hours_per_day
    loads = SweepLoads.for_supernodes(system.live_supernodes, hours)
    assert loads.counts.shape == (len(system.live_supernodes), hours + 2)
    assert loads.rates.shape == loads.counts.shape
    for row, sid in enumerate(system.live_supernodes):
        assert loads.row(sid) == row
    assert loads.row(10_000) is None


def test_fail_supernodes_keeps_live_ids_consistent():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=150, num_supernodes=10, seed=3))
    system.run(days=1)
    online = system.supernode_pool.online
    before = set(system.live_supernodes)
    assert set(np.flatnonzero(online).tolist()) == before
    system.fail_supernodes(3, np.random.default_rng(0))
    after = set(system.live_supernodes)
    assert len(after) == len(before) - 3
    assert set(np.flatnonzero(online).tolist()) == after
    # The directory only ever serves live supernodes afterwards.
    for player in range(0, 150, 30):
        for sid in system.directory.candidates_for(player, 5):
            assert sid in after


def make_day(day, continuity, online=100, supernode=40):
    return DayMetrics(day=day, online_players=online,
                      supernode_players=supernode,
                      cloud_players=online - supernode,
                      cloud_bandwidth_mbps=500.0 + day,
                      mean_response_latency_ms=80.0 + day,
                      mean_server_latency_ms=10.0,
                      mean_continuity=continuity,
                      satisfied_ratio=continuity)


def test_run_result_aggregate_cache_invalidates_on_new_days():
    result = RunResult(days=[make_day(0, 0.8)])
    assert result.mean_continuity == 0.8
    assert result._aggregate_cache is not None
    assert result._aggregate_cache["num_days"] == 1
    # A later measured day must refresh the cached aggregates.
    result.days.append(make_day(1, 0.6))
    assert result.mean_continuity == float(np.mean([0.8, 0.6]))
    assert result._aggregate_cache["num_days"] == 2
    assert result.supernode_coverage == 80 / 200


def test_run_result_mean_properties_match_recomputation():
    system = CloudFogSystem(configs.cloudfog_basic(
        num_players=120, num_supernodes=8, seed=5))
    result = system.run(days=2)
    assert result.mean_response_latency_ms == float(np.mean(
        [d.mean_response_latency_ms for d in result.days]))
    assert result.mean_cloud_bandwidth_mbps == float(np.mean(
        [d.cloud_bandwidth_mbps for d in result.days]))
    assert result.mean_satisfied_ratio == float(np.mean(
        [d.satisfied_ratio for d in result.days]))
    online = sum(d.online_players for d in result.days)
    served = sum(d.supernode_players for d in result.days)
    assert result.supernode_coverage == served / online


def test_empty_run_result_raises():
    with pytest.raises(ValueError):
        RunResult().mean_continuity
