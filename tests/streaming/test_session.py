"""Tests for event-level streaming sessions and the fast estimator."""

import numpy as np
import pytest

from repro.network.transport import PathSpec, TransportModel
from repro.workload.games import game_for_level
from .event_session_oracle import SessionConfig, simulate_session
from .session_oracle import (
    estimate_continuity,
    stationary_level,
)


def make_config(**kwargs):
    defaults = dict(
        response_budget_ms=90.0,
        tolerance=0.9,
        path=PathSpec(one_way_latency_ms=15.0, sender_share_mbps=5.0,
                      receiver_download_mbps=10.0),
        upstream_one_way_ms=25.0,
        duration_s=30.0,
        adaptive=True,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def no_jitter():
    return TransportModel(jitter_fraction=0.0, base_loss_rate=0.0)


def test_config_network_budget():
    config = make_config()
    assert config.network_budget_ms == pytest.approx(90.0 - 25.0 - 20.0)


def test_config_initial_level_matches_game():
    assert make_config(response_budget_ms=90.0).initial_level() == 4
    assert make_config(response_budget_ms=110.0).initial_level() == 5
    assert make_config(response_budget_ms=30.0, tolerance=0.6).initial_level() == 1


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(response_budget_ms=0.0)
    with pytest.raises(ValueError):
        make_config(duration_s=0.0)
    with pytest.raises(ValueError):
        make_config(upstream_one_way_ms=-1.0)


def test_good_path_yields_high_continuity():
    rng = np.random.default_rng(0)
    result = simulate_session(make_config(), rng, no_jitter())
    assert result.continuity > 0.95
    assert result.satisfied
    assert result.stats.packets_total == 30 * 30  # 30 s at 30 fps


def test_terrible_path_yields_low_continuity_without_adaptation():
    rng = np.random.default_rng(0)
    config = make_config(
        adaptive=False,
        path=PathSpec(one_way_latency_ms=60.0, sender_share_mbps=0.8,
                      receiver_download_mbps=0.8))
    result = simulate_session(config, rng, no_jitter())
    assert result.continuity < 0.5
    assert not result.satisfied


def test_adaptation_improves_congested_session():
    """The Fig. 11 effect: adaptation raises continuity under congestion."""
    path = PathSpec(one_way_latency_ms=20.0, sender_share_mbps=1.5,
                    receiver_download_mbps=3.0)
    base = make_config(path=path, adaptive=False, sender_utilization=0.5)
    adaptive = make_config(path=path, adaptive=True, sender_utilization=0.5)
    r_base = simulate_session(base, np.random.default_rng(1), no_jitter())
    r_adaptive = simulate_session(adaptive, np.random.default_rng(1), no_jitter())
    assert r_adaptive.continuity > r_base.continuity
    assert r_adaptive.final_level < base.initial_level()
    assert r_adaptive.mean_bitrate_kbps < r_base.mean_bitrate_kbps


def test_adaptive_session_reduces_level_on_narrow_path():
    rng = np.random.default_rng(2)
    config = make_config(
        path=PathSpec(one_way_latency_ms=10.0, sender_share_mbps=1.0,
                      receiver_download_mbps=1.0))
    result = simulate_session(config, rng, no_jitter())
    assert result.final_level < config.initial_level()
    assert result.adjustments >= 1


def test_stationary_level_matches_bandwidth():
    # 5 Mbps supports level 4 (1.2 Mbps) easily.
    assert stationary_level(make_config()) == 4
    # 1 Mbps cannot support 1.2 Mbps; settles at level 3 (0.8 Mbps).
    narrow = make_config(path=PathSpec(15.0, 1.0, 10.0))
    assert stationary_level(narrow) == 3
    # Non-adaptive sessions never move.
    pinned = make_config(path=PathSpec(15.0, 1.0, 10.0), adaptive=False)
    assert stationary_level(pinned) == 4


def test_estimator_agrees_with_simulation_on_clear_cases():
    """Fast estimator and DES agree on good vs bad paths."""
    transport = no_jitter()
    good = make_config()
    bad = make_config(adaptive=False, path=PathSpec(70.0, 0.8, 0.8))
    sim_good = simulate_session(good, np.random.default_rng(3), transport)
    est_good = estimate_continuity(good, np.random.default_rng(3), transport)
    sim_bad = simulate_session(bad, np.random.default_rng(3), transport)
    est_bad = estimate_continuity(bad, np.random.default_rng(3), transport)
    assert abs(sim_good.continuity - est_good.continuity) < 0.1
    assert est_bad.continuity < 0.6
    assert sim_bad.continuity < 0.6


def test_estimator_respects_sample_count_validation():
    with pytest.raises(ValueError):
        estimate_continuity(make_config(), np.random.default_rng(0),
                            n_samples=0)


def test_estimator_caps_continuity_by_deliverable_share():
    """Oversubscribed non-adaptive stream cannot exceed throughput/bitrate."""
    config = make_config(
        adaptive=False,
        path=PathSpec(one_way_latency_ms=5.0, sender_share_mbps=0.6,
                      receiver_download_mbps=10.0))
    result = estimate_continuity(config, np.random.default_rng(0), no_jitter())
    assert result.continuity <= 0.6 / 1.2 + 1e-9


def test_sessions_are_reproducible():
    config = make_config()
    a = simulate_session(config, np.random.default_rng(7))
    b = simulate_session(config, np.random.default_rng(7))
    assert a.continuity == b.continuity
    assert a.mean_response_latency_ms == b.mean_response_latency_ms


def test_utilization_degrades_continuity():
    config_idle = make_config(sender_utilization=0.0,
                              path=PathSpec(25.0, 2.0, 4.0), adaptive=False)
    config_busy = make_config(sender_utilization=0.95,
                              path=PathSpec(25.0, 2.0, 4.0), adaptive=False)
    idle = estimate_continuity(config_idle, np.random.default_rng(0), no_jitter())
    busy = estimate_continuity(config_busy, np.random.default_rng(0), no_jitter())
    assert busy.continuity < idle.continuity


def test_fig11_event_level_session_at_85_percent_utilisation():
    """The event-level Fig. 11 numbers EXPERIMENTS.md quotes.

    EmpireForge (level 4, 1200 kbps, 90 ms) on an 18 ms path with a
    2 Mbit/s sender share at 85 % utilisation: the fixed-rate stream
    misses every deadline, the adaptive one walks down to level 1 and
    delivers about 80 % of its packets on time.  The closed-form
    estimator scores the settled level and reads 0.250 / 1.000 here
    (``examples/streaming_adaptation.py``).
    """
    game = game_for_level(4)
    results = {}
    for adaptive in (False, True):
        config = SessionConfig(
            response_budget_ms=game.latency_requirement_ms,
            tolerance=game.tolerance,
            path=PathSpec(one_way_latency_ms=18.0, sender_share_mbps=2.0,
                          receiver_download_mbps=8.0),
            upstream_one_way_ms=0.0, processing_ms=0.0,
            sender_utilization=0.85, duration_s=60.0, adaptive=adaptive)
        results[adaptive] = simulate_session(
            config, np.random.default_rng(42),
            TransportModel(jitter_fraction=0.10))
    assert results[False].continuity == 0.0
    assert results[False].final_level == 4
    assert round(results[True].continuity, 3) == 0.799
    assert results[True].final_level == 1
    assert results[True].adjustments == 3
