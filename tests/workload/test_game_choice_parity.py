"""The day's game choice on codes equals the ``Game``-object rule.

``sweep.choose_games`` and ``FlashCrowdStage`` run beside their frozen
per-player copies in :mod:`.game_choice_oracle` on generated friend
graphs, participant subsets, seeds, game mixes and quality ceilings.
Every participant's catalogue index must name the oracle's game, so no
draw, tie or ceiling clamp moved.  Sparse graphs make most players
take a fallback draw, the case where the block draw replaces one
scalar draw per player.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import sweep
from repro.core.state import SessionTable
from repro.sim.rng import RngFactory
from repro.social.graph import FriendGraph
from repro.workload.churn import DayPlans
from repro.workload.games import GAME_CATALOGUE
from repro.workload.overrides import FlashCrowdStage, WorkloadOverrides

from . import game_choice_oracle as oracle

NAMES = [game.name for game in GAME_CATALOGUE]


@st.composite
def friend_graphs(draw, max_players=40):
    """A player count and a friend graph, from empty to dense."""
    n = draw(st.integers(min_value=1, max_value=max_players))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    edges = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < density]
    return FriendGraph(n, edges=edges)


game_weights = st.one_of(st.none(), st.dictionaries(
    st.sampled_from(NAMES), st.floats(0.0, 5.0), min_size=1).filter(
        lambda weights: any(w > 0 for w in weights.values())))
ceilings = st.one_of(st.none(), st.integers(1, len(GAME_CATALOGUE)))


def _workload(weights, ceiling) -> WorkloadOverrides:
    return WorkloadOverrides(
        game_weights=None if weights is None else tuple(weights.items()),
        quality_ceiling=ceiling)


def _state(friends: FriendGraph, workload: WorkloadOverrides):
    return SimpleNamespace(
        config=SimpleNamespace(workload=workload),
        population=SimpleNamespace(friends=friends),
        topology=SimpleNamespace(num_players=friends.num_players))


@given(friends=friend_graphs(), share=st.floats(0.05, 1.0),
       seed=st.integers(0, 2**32 - 1), weights=game_weights,
       ceiling=ceilings)
@example(friends=FriendGraph(300), share=1.0, seed=0, weights=None,
         ceiling=None)  # nobody has a friend: every player draws
@settings(max_examples=200, deadline=None)
def test_choose_games_gives_every_participant_the_oracle_game(
        friends, share, seed, weights, ceiling):
    n = friends.num_players
    pick = np.random.default_rng(seed)
    players = pick.choice(n, size=max(1, int(share * n)), replace=False)
    plans = DayPlans.of(players, 1, 1.0)
    state = _state(friends, _workload(weights, ceiling))
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)

    sweep.choose_games(state, plans, rng)
    expected = oracle.choose_games(state, plans, reference_rng)

    code = state.game_code
    assert code.dtype == np.int8 and code.shape == (n,)
    assert {player: GAME_CATALOGUE[code[player]]
            for player in players.tolist()} == expected
    assert np.all(np.delete(code, players) == -1)
    if weights is not None:
        # The weighted picks are one block of as many draws.
        assert rng.bit_generator.state == reference_rng.bit_generator.state


@given(n=st.integers(2, 60), crowd_size=st.integers(1, 80),
       known_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**16),
       weights=game_weights, ceiling=ceilings,
       game=st.one_of(st.none(), st.sampled_from(NAMES)))
@settings(max_examples=150, deadline=None)
def test_flash_crowd_gives_every_joiner_the_oracle_game(
        n, crowd_size, known_share, seed, weights, ceiling, game):
    """Some players already hold a game today (a shed session leaves
    its player idle with one); the rest of the crowd draws."""
    crowd = FlashCrowdStage(day=2, subcycle=7, players=crowd_size,
                            game=game)
    workload = _workload(weights, ceiling)
    setup = np.random.default_rng(seed)
    known = np.flatnonzero(setup.random(n) < known_share)
    code = np.full(n, -1, dtype=np.int8)
    code[known] = setup.integers(0, len(GAME_CATALOGUE), size=len(known))
    day_games = {player: GAME_CATALOGUE[code[player]]
                 for player in known.tolist()}
    state = SimpleNamespace(rng_factory=RngFactory(seed),
                            topology=SimpleNamespace(num_players=n),
                            config=SimpleNamespace(workload=workload),
                            game_code=code)
    ctx = SimpleNamespace(day=crowd.day, subcycle=crowd.subcycle,
                          sessions=SessionTable(n), starts={})

    before = code.copy()
    crowd(state, ctx)

    joiners = ctx.starts[crowd.subcycle].player.tolist()
    rng = RngFactory(seed).stream(
        f"scenario-flash-{crowd.day}-{crowd.subcycle}")
    chosen = rng.choice(n, size=min(crowd_size, n), replace=False)
    assert joiners == np.sort(chosen).tolist()
    expected = oracle.crowd_games(crowd, workload, joiners,
                                  dict(day_games), rng)
    assert [GAME_CATALOGUE[state.game_code[player]] for player in joiners
            ] == [expected[player] for player in joiners]
    others = np.setdiff1d(np.arange(n), joiners)
    assert np.array_equal(state.game_code[others], before[others])
