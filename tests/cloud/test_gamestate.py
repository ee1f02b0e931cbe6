"""Tests for the virtual world and update messages."""

import pytest

from repro.cloud.gamestate import UPDATE_MESSAGE_BITS_PER_SUPERNODE

from .gamestate_oracle import (
    ACTION_SIZE_BITS,
    Action,
    ActionType,
    Avatar,
    VirtualWorld,
)


def test_update_message_rate_is_far_below_video_rates():
    """The whole point of fog: Λ << video bitrate (300-1800 kbit/s)."""
    assert UPDATE_MESSAGE_BITS_PER_SUPERNODE < 300_000 / 2


def test_action_size_is_tiny():
    assert ACTION_SIZE_BITS < 10_000
    assert Action(1, ActionType.MOVE).size_bits == ACTION_SIZE_BITS


def test_action_involves():
    assert Action(1, ActionType.MOVE).involves() == (1,)
    assert Action(1, ActionType.STRIKE, target=2).involves() == (1, 2)
    assert Action(1, ActionType.STRIKE, target=1).involves() == (1,)


def test_add_and_remove_players():
    world = VirtualWorld()
    world.add_player(1)
    world.add_player(2, x=5.0)
    assert len(world) == 2
    assert 1 in world
    world.remove_player(1)
    assert 1 not in world
    with pytest.raises(KeyError):
        world.remove_player(1)
    with pytest.raises(ValueError):
        world.add_player(2)


def test_move_action_updates_position():
    world = VirtualWorld()
    world.add_player(1)
    world.apply(Action(1, ActionType.MOVE, dx=3.0, dy=-2.0))
    avatar = world.avatars[1]
    assert avatar.x == 3.0
    assert avatar.y == -2.0


def test_strike_action_damages_target_and_scores():
    world = VirtualWorld()
    world.add_player(1)
    world.add_player(2)
    changed = world.apply(Action(1, ActionType.STRIKE, target=2))
    assert set(changed) == {1, 2}
    assert world.avatars[2].health == 90.0
    assert world.avatars[1].score == 1.0


def test_strike_never_drops_health_below_zero():
    world = VirtualWorld()
    world.add_player(1)
    world.add_player(2)
    for _ in range(20):
        world.apply(Action(1, ActionType.STRIKE, target=2))
    assert world.avatars[2].health == 0.0


def test_apply_unknown_player_raises():
    world = VirtualWorld()
    with pytest.raises(KeyError):
        world.apply(Action(9, ActionType.MOVE))


def test_step_advances_tick_and_sizes_delta():
    world = VirtualWorld(bits_per_changed_avatar=400.0, heartbeat_bits=2000.0)
    for p in range(10):
        world.add_player(p)
    actions = [Action(p, ActionType.MOVE, dx=1.0) for p in range(10)]
    update = world.step(actions)
    assert update.tick == 1
    assert update.changed_players == tuple(range(10))
    assert update.size_bits == pytest.approx(4000.0)


def test_step_idle_tick_costs_heartbeat():
    world = VirtualWorld(heartbeat_bits=2000.0)
    update = world.step([])
    assert update.size_bits == 2000.0
    assert update.changed_players == ()


def test_step_counts_each_player_once():
    world = VirtualWorld(bits_per_changed_avatar=400.0, heartbeat_bits=0.1)
    world.add_player(1)
    actions = [Action(1, ActionType.MOVE, dx=1.0) for _ in range(5)]
    update = world.step(actions)
    assert update.size_bits == pytest.approx(400.0)


def test_positions_ordered_by_player_id():
    world = VirtualWorld()
    world.add_player(5, x=5.0)
    world.add_player(1, x=1.0)
    positions = world.positions()
    assert positions.shape == (2, 2)
    assert positions[0][0] == 1.0
    assert positions[1][0] == 5.0
    assert VirtualWorld().positions().shape == (0, 2)


def test_avatar_validation():
    with pytest.raises(ValueError):
        Avatar(player=1, health=-5.0)
