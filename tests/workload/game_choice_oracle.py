"""Frozen oracle: the day's game choice on one ``Game`` object per player.

Verbatim copies, taken before a day's games became one catalogue-code
column (``SimState.game_code``), of ``random_game``,
``weighted_catalogue``, ``draw_weighted`` and ``under_ceiling`` from
``repro.workload.games``, of ``choose_game`` (with its catalogue
position table) from ``repro.workload.population``, of
``repro.core.sweep.choose_games`` and of the per-joiner game loop of
``repro.workload.overrides.FlashCrowdStage``.  The two loops return the
``{player: Game}`` dict they used to write into ``state.games``, and
read a duck-typed state.  ``test_game_choice_parity.py`` and
``benchmarks/bench_perf_scoring.py`` run them beside the live code on
the same inputs: equal games per player mean every draw, every tie and
every ceiling clamp is unchanged.  Do not edit this file to follow the
live code.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.workload.games import GAME_CATALOGUE, Game, game_for_level

_GAMES_BY_NAME = {game.name: game for game in GAME_CATALOGUE}


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


#: Catalogue position of each game name (built backwards, so a repeated
#: name keeps its earliest position).
_CATALOGUE_POSITION: dict[str, int] = {
    game.name: position
    for position, game in reversed(list(enumerate(GAME_CATALOGUE)))}


def choose_game(player: int, adjacency: Mapping[int, Sequence[int]],
                playing: Mapping[int, Game],
                rng: np.random.Generator) -> Game:
    """The §4.1 social game-choice rule.

    ``adjacency`` is the friend graph's cached :meth:`~repro.social.
    graph.FriendGraph.adjacency`; ``playing`` maps currently-online
    players to the game they play.  Friends' games are counted by name
    at their catalogue position; ties go to the earlier catalogue entry
    (deterministic).  If a non-catalogue name alone holds the top
    count, the first playing friend's game is returned.  The RNG draws
    only when no friend plays.
    """
    counts = [0] * len(GAME_CATALOGUE)
    first: Game | None = None
    others: dict[str, int] | None = None
    for friend in adjacency.get(player, ()):
        if friend in playing:
            game = playing[friend]
            if first is None:
                first = game
            position = _CATALOGUE_POSITION.get(game.name)
            if position is not None:
                counts[position] += 1
            else:
                if others is None:
                    others = {}
                others[game.name] = others.get(game.name, 0) + 1
    if first is None:
        return random_game(rng)
    best = max(counts)
    if others is not None and max(others.values()) > best:
        return first
    return GAME_CATALOGUE[counts.index(best)]


def choose_games(state, plans, rng: np.random.Generator) -> dict[int, Game]:
    """``repro.core.sweep.choose_games``: every participant's game."""
    games: dict[int, Game] = {}
    players = plans.player.tolist()
    workload = state.config.workload
    if workload.game_weights is not None:
        # Scenario game mix: a weighted catalogue draw replaces the
        # social rule wholesale (an esports final is not organic play).
        mix = weighted_catalogue(dict(workload.game_weights))
        for index in rng.permutation(len(players)).tolist():
            games[players[index]] = draw_weighted(rng, *mix)
    else:
        adjacency = state.population.friends.adjacency()
        for index in rng.permutation(len(players)).tolist():
            player = players[index]
            games[player] = choose_game(player, adjacency, games, rng)
    cap = workload.quality_ceiling
    if cap is not None:
        # Bandwidth-constrained thin clients: nothing streams above
        # the ceiling level, whatever game the social rule picked.
        for player, game in games.items():
            games[player] = under_ceiling(game, cap)
    return games


def crowd_games(crowd, workload, joiners: list[int],
                games: dict[int, Game],
                rng: np.random.Generator) -> dict[int, Game]:
    """The ``FlashCrowdStage`` joiners' games: ``games`` (the day's,
    updated in place) after the crowd's draws from ``rng``, which has
    already drawn the joiners."""
    weights = workload.game_weights
    mix = None if weights is None else weighted_catalogue(dict(weights))
    for player in joiners:
        if crowd.game is not None:
            game = _GAMES_BY_NAME[crowd.game]
        elif player in games:
            game = games[player]
        elif mix is None:
            game = random_game(rng)
        else:
            game = draw_weighted(rng, *mix)
        games[player] = under_ceiling(game, workload.quality_ceiling)
    return games
