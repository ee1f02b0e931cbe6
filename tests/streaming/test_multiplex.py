"""Tests for the shared-uplink DES and macro-model validation."""

import numpy as np
import pytest

from repro.network.transport import PathSpec, TransportModel
from repro.streaming.session import SessionConfig
from repro.workload.games import game_for_level

from .multiplex_oracle import (
    MultiplexConfig,
    simulate_supernode,
)
from .session_oracle import estimate_continuity


def test_config_validation():
    game = game_for_level(3)
    with pytest.raises(ValueError):
        MultiplexConfig(upload_mbps=0.0, games=(game,))
    with pytest.raises(ValueError):
        MultiplexConfig(upload_mbps=5.0, games=())
    with pytest.raises(ValueError):
        MultiplexConfig(upload_mbps=5.0, games=(game,), path_latency_ms=-1.0)
    with pytest.raises(ValueError):
        MultiplexConfig(upload_mbps=5.0, games=(game,), duration_s=0.0)


def test_single_player_on_fast_uplink_is_perfect():
    game = game_for_level(3)  # 800 kbps, 70 ms deadline
    config = MultiplexConfig(upload_mbps=10.0, games=(game,),
                             path_latency_ms=15.0, duration_s=10.0)
    outcomes = simulate_supernode(config, np.random.default_rng(0))
    assert len(outcomes) == 1
    assert outcomes[0].continuity == pytest.approx(1.0)
    assert outcomes[0].packets == pytest.approx(300, abs=5)


def test_oversubscribed_uplink_misses_deadlines():
    game = game_for_level(5)  # 1.8 Mbit/s each
    config = MultiplexConfig(upload_mbps=3.0, games=(game,) * 4,
                             path_latency_ms=15.0, duration_s=10.0)
    outcomes = simulate_supernode(config, np.random.default_rng(0))
    # 7.2 Mbit/s offered through a 3 Mbit/s pipe: queues explode.
    assert np.mean([o.continuity for o in outcomes]) < 0.4


def test_fairness_across_identical_players():
    game = game_for_level(3)
    config = MultiplexConfig(upload_mbps=5.0, games=(game,) * 4,
                             duration_s=20.0)
    outcomes = simulate_supernode(config, np.random.default_rng(0))
    continuities = [o.continuity for o in outcomes]
    assert max(continuities) - min(continuities) < 0.15


def test_more_players_never_improve_delay():
    game = game_for_level(4)
    delays = []
    for k in (1, 4, 8):
        config = MultiplexConfig(upload_mbps=12.0, games=(game,) * k,
                                 duration_s=15.0)
        outcomes = simulate_supernode(config, np.random.default_rng(1))
        delays.append(np.mean([o.mean_delay_ms for o in outcomes]))
    assert delays[0] <= delays[1] <= delays[2]


@pytest.mark.parametrize("k,upload", [(2, 8.0), (5, 15.0), (8, 15.0)])
def test_macro_estimator_agrees_with_event_level(k, upload):
    """The macro M/D/1 approximation tracks the event-level truth.

    Both models score k level-3 players sharing one uplink; their mean
    continuities must agree within a coarse tolerance.
    """
    game = game_for_level(3)
    config = MultiplexConfig(upload_mbps=upload, games=(game,) * k,
                             path_latency_ms=18.0, duration_s=20.0)
    micro = simulate_supernode(config, np.random.default_rng(2))
    micro_mean = float(np.mean([o.continuity for o in micro]))

    utilization = k * game.stream_rate_mbps / upload
    session = SessionConfig(
        response_budget_ms=game.latency_requirement_ms,
        tolerance=game.tolerance,
        path=PathSpec(one_way_latency_ms=18.0,
                      sender_share_mbps=upload / k,
                      receiver_download_mbps=50.0),
        upstream_one_way_ms=0.0,
        processing_ms=0.0,
        sender_utilization=min(0.99, utilization),
        adaptive=False,
    )
    macro = estimate_continuity(
        session, np.random.default_rng(2),
        TransportModel(jitter_fraction=0.0, base_loss_rate=0.0))
    assert macro.continuity == pytest.approx(micro_mean, abs=0.25)
