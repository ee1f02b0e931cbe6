"""System-level accounting invariants.

These pin the identities that keep the macro metrics trustworthy: the
Eq.-2 bandwidth decomposition, session conservation, and credit-ledger
consistency with the served traffic.
"""

import numpy as np
import pytest

from repro.cloud.gamestate import UPDATE_MESSAGE_BITS_PER_SUPERNODE
from repro.core import CloudFogSystem, ConnectionKind, cloud_only, cloudfog_basic, sweep
from repro.workload.games import GAME_CATALOGUE


@pytest.fixture(scope="module")
def fog_run():
    system = CloudFogSystem(cloudfog_basic(num_players=250,
                                           num_supernodes=15, seed=6))
    return system, system.run(days=2)


def test_sessions_equal_participants(fog_run):
    _, result = fog_run
    day = result.days[-1]
    day_sessions = [r for r in result.sessions if r.day == day.day]
    assert len(day_sessions) == day.online_players
    # Each player has exactly one session per day.
    assert len({r.player for r in day_sessions}) == len(day_sessions)


def test_kind_partition(fog_run):
    _, result = fog_run
    day = result.days[-1]
    day_sessions = [r for r in result.sessions if r.day == day.day]
    by_kind = {
        ConnectionKind.SUPERNODE:
            sum(1 for r in day_sessions
                if r.kind is ConnectionKind.SUPERNODE),
        ConnectionKind.CLOUD:
            sum(1 for r in day_sessions if r.kind is ConnectionKind.CLOUD),
    }
    assert by_kind[ConnectionKind.SUPERNODE] == day.supernode_players
    assert by_kind[ConnectionKind.CLOUD] == day.cloud_players


def test_cloud_only_bandwidth_identity():
    """Plain cloud: daily egress equals the time-weighted stream demand
    of its sessions (no Λ term, no supernodes)."""
    system = CloudFogSystem(cloud_only(num_players=200, seed=6))
    result = system.run(days=2)
    day = result.days[-1]
    # Reconstruct: every session streams its game's bitrate for its
    # whole-subcycle span; the mean over 24 subcycles is the metric.
    rng = system.state.rng_factory.stream(f"plans-{day.day}")
    plans = sweep.sample_plans(system.state, rng)
    games_rng = system.state.rng_factory.stream(f"games-{day.day}")
    sweep.choose_games(system.state, plans, games_rng)
    row = {player: index for index, player in enumerate(plans.player.tolist())}
    expected = 0.0
    for record in result.sessions:
        if record.day != day.day:
            continue
        index = row[record.player]
        start = min(int(plans.start[index]), 24)
        hours = min(24, start + int(np.ceil(plans.hours[index])) - 1) \
            - start + 1
        game = GAME_CATALOGUE[system.state.game_code[record.player]]
        expected += game.stream_rate_mbps * hours
    assert day.cloud_bandwidth_mbps == pytest.approx(expected / 24,
                                                     rel=1e-6)


def test_fog_bandwidth_below_cloud_identity(fog_run):
    """CloudFog's egress = direct streams + Λ x serving supernodes, so
    it is bounded by the cloud-only equivalent of its direct players
    plus Λ per live supernode."""
    system, result = fog_run
    day = result.days[-1]
    max_rate = max(g.stream_rate_mbps for g in GAME_CATALOGUE)
    update_mbps = UPDATE_MESSAGE_BITS_PER_SUPERNODE / 1e6
    upper = (day.cloud_players * max_rate
             + len(system.state.supernode_pool) * update_mbps)
    assert day.cloud_bandwidth_mbps <= upper + 1e-9


def test_credit_ledger_matches_served_traffic(fog_run):
    """Every credited GB corresponds to supernode-served stream time."""
    system, result = fog_run
    total_gb = sum(a.gb_served for a in system.state.credits.accounts.values())
    # Supernode sessions exist, so traffic was served and credited.
    assert total_gb > 0.0
    # A loose upper bound: every session at the top bitrate for 24 h.
    sn_sessions = sum(1 for r in result.sessions
                      if r.kind is ConnectionKind.SUPERNODE)
    max_rate = max(g.stream_rate_mbps for g in GAME_CATALOGUE)
    # Two days were simulated but only one measured; bound uses both.
    assert total_gb <= 2 * (sn_sessions + result.days[-1].online_players) \
        * max_rate * 24 * 0.45
