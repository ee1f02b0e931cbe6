"""Integration: the virtual world's update traffic justifies Λ.

The whole fog design rests on one asymmetry: the cloud→supernode update
stream (Λ) is orders of magnitude smaller than the video stream.  This
test simulates the actual game world at tick level with realistic
player activity and checks that the measured update bandwidth is in the
same regime as the Λ constant used by the bandwidth accounting.
"""

import numpy as np
import pytest

from repro.cloud.gamestate import UPDATE_MESSAGE_BITS_PER_SUPERNODE
from repro.streaming.video import QUALITY_LADDER

from ..cloud.gamestate_oracle import Action, ActionType, VirtualWorld

TICK_RATE_HZ = 10  # state ticks per second (typical MMOG server rate)


def simulate_world_second(world: VirtualWorld, players: list[int],
                          rng: np.random.Generator,
                          actions_per_player_s: float = 2.0) -> float:
    """One second of world simulation; returns update bits emitted."""
    bits = 0.0
    for _ in range(TICK_RATE_HZ):
        actions = []
        for player in players:
            if rng.random() < actions_per_player_s / TICK_RATE_HZ:
                kind = rng.choice([ActionType.MOVE, ActionType.STRIKE,
                                   ActionType.INTERACT])
                target = int(rng.choice(players)) if kind != ActionType.MOVE \
                    else None
                actions.append(Action(player, kind, target=target,
                                      dx=rng.normal(), dy=rng.normal()))
        bits += world.step(actions).size_bits
    return bits


@pytest.fixture(scope="module")
def measured_update_bps():
    rng = np.random.default_rng(0)
    world = VirtualWorld()
    players = list(range(40))  # a supernode's worth of active players
    for player in players:
        world.add_player(player, x=float(rng.uniform(0, 100)),
                         y=float(rng.uniform(0, 100)))
    seconds = 30
    total_bits = sum(simulate_world_second(world, players, rng)
                     for _ in range(seconds))
    return total_bits / seconds


def test_measured_update_rate_matches_lambda(measured_update_bps):
    """The tick-level measurement lands within ~3x of the Λ constant."""
    ratio = measured_update_bps / UPDATE_MESSAGE_BITS_PER_SUPERNODE
    assert 1 / 3 < ratio < 3


def test_update_stream_is_orders_below_video(measured_update_bps):
    """Λ << every Table-2 video bitrate — the fog premise, measured."""
    lowest_video_bps = QUALITY_LADDER[0].bitrate_bps
    assert measured_update_bps < lowest_video_bps / 5


def test_world_state_stays_consistent_under_load():
    rng = np.random.default_rng(1)
    world = VirtualWorld()
    players = list(range(25))
    for player in players:
        world.add_player(player)
    for _ in range(20):
        simulate_world_second(world, players, rng)
    assert len(world) == 25
    assert world.tick == 20 * TICK_RATE_HZ
    for avatar in world.avatars.values():
        assert avatar.health >= 0.0
        assert avatar.score >= 0.0
