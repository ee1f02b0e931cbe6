"""Tests for the game catalogue."""

import numpy as np
import pytest

from repro.core.selection import GAME_L_MAX_MS, delay_threshold_ms
from repro.workload.games import (GAME_CATALOGUE, GAME_CODE,
                                  LATENCY_REQUIREMENT_MS, STREAM_RATE_MBPS,
                                  game_for_level, random_codes)


def test_five_games_one_per_quality_level():
    """§4.1: 5 games mapped to the 5 Table-2 rows."""
    assert len(GAME_CATALOGUE) == 5
    assert sorted(g.default_level for g in GAME_CATALOGUE) == [1, 2, 3, 4, 5]


def test_game_qos_fields_follow_the_ladder():
    game = game_for_level(4)
    assert game.latency_requirement_ms == 90.0
    assert game.tolerance == 0.9
    assert game.stream_rate_mbps == pytest.approx(1.2)


def test_fps_is_strictest_genre():
    fps = game_for_level(1)
    assert fps.genre == "first-person shooter"
    assert fps.latency_requirement_ms == min(
        g.latency_requirement_ms for g in GAME_CATALOGUE)


def test_game_for_level_unknown():
    with pytest.raises(ValueError):
        game_for_level(9)


def test_random_game_uniform():
    rng = np.random.default_rng(0)
    names = [GAME_CATALOGUE[code].name
             for code in random_codes(rng, 5000).tolist()]
    for game in GAME_CATALOGUE:
        share = names.count(game.name) / len(names)
        assert 0.15 < share < 0.25


def test_catalogue_tables_equal_the_game_properties_bit_for_bit():
    """The code-indexed tables every stage reads hold each game's own
    property values, and catalogue index ``i`` is the level-``i + 1``
    game, which the quality-ceiling clamp ``min(code, ceiling - 1)``
    relies on."""
    assert len(STREAM_RATE_MBPS) == len(LATENCY_REQUIREMENT_MS) \
        == len(GAME_L_MAX_MS) == len(GAME_CATALOGUE)
    for code, game in enumerate(GAME_CATALOGUE):
        assert game.default_level == code + 1
        assert GAME_CODE[game.name] == code
        assert float(STREAM_RATE_MBPS[code]).hex() \
            == game.stream_rate_mbps.hex()
        assert float(LATENCY_REQUIREMENT_MS[code]).hex() \
            == game.latency_requirement_ms.hex()
        assert GAME_L_MAX_MS[code].hex() == delay_threshold_ms(
            game.latency_requirement_ms).hex()
