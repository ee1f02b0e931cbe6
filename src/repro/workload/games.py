"""Game catalogue: the five games of the evaluation.

§4.1: "We defined 5 games, their quality levels and latency requirements
are shown in Table 2."  Each game maps to one Table-2 row: its response-
latency requirement, latency tolerance degree ρ and default video level.
Different genres have different latency requirements [23] — from the
twitchy first-person shooter at 30 ms tolerance to a slow RPG that
tolerates 110 ms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..streaming.video import QUALITY_LADDER, QualityLevel

__all__ = ["Game", "GAME_CATALOGUE", "game_for_level", "random_game",
           "weighted_catalogue", "draw_weighted", "under_ceiling"]


@dataclass(frozen=True)
class Game:
    """One game title and its QoS demands."""

    name: str
    genre: str
    quality: QualityLevel

    @property
    def latency_requirement_ms(self) -> float:
        """The response-latency requirement of this game's genre."""
        return self.quality.latency_requirement_ms

    @property
    def tolerance(self) -> float:
        """Latency tolerance degree ρ (§3.3)."""
        return self.quality.tolerance

    @property
    def default_level(self) -> int:
        return self.quality.level

    @property
    def stream_rate_mbps(self) -> float:
        return self.quality.bitrate_bps / 1e6


#: The five games, one per Table-2 quality level, with genre labels
#: reflecting the latency-sensitivity literature the paper cites [23]:
#: first-person games are strictest, omnipresent-view games most lenient.
GAME_CATALOGUE: tuple[Game, ...] = tuple(
    Game(name, genre, QUALITY_LADDER[level - 1])
    for name, genre, level in (
        ("ArenaStrike", "first-person shooter", 1),
        ("BladeDuel", "action RPG", 2),
        ("WarBanner", "role-playing game", 3),
        ("EmpireForge", "real-time strategy", 4),
        ("KingdomSaga", "omnipresent simulation", 5),
    )
)


def game_for_level(level: int) -> Game:
    """The catalogue game whose default quality level is ``level``."""
    for game in GAME_CATALOGUE:
        if game.default_level == level:
            return game
    raise ValueError(f"no game with quality level {level}")


def random_game(rng: np.random.Generator) -> Game:
    """Uniform random game (a joining player with no friends playing)."""
    return GAME_CATALOGUE[int(rng.integers(0, len(GAME_CATALOGUE)))]


def weighted_catalogue(weights) -> tuple[tuple[Game, ...], np.ndarray]:
    """A scenario game mix: the catalogue games of positive weight and
    their draw probabilities (``weights`` maps game name to weight)."""
    games = tuple(game for game in GAME_CATALOGUE
                  if weights.get(game.name, 0.0) > 0.0)
    probs = np.array([weights[game.name] for game in games])
    return games, probs / probs.sum()


def draw_weighted(rng: np.random.Generator, games: tuple[Game, ...],
                  probs: np.ndarray) -> Game:
    """One game from a :func:`weighted_catalogue` mix."""
    return games[int(rng.choice(len(games), p=probs))]


def under_ceiling(game: Game, ceiling: int | None) -> Game:
    """``game``, or the ceiling level's game when ``game`` would stream
    above it (bandwidth-constrained thin clients; None = no ceiling)."""
    if ceiling is None or game.default_level <= ceiling:
        return game
    return game_for_level(ceiling)
