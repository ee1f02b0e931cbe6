"""Flash-crowd joiners follow the day's game rules.

A crowd member without a day game draws one: from the workload's game
mix when it has one, uniformly from the catalogue otherwise, and every
joiner's game is held under the workload's quality ceiling.
"""

from types import SimpleNamespace

from repro.core.config import cloudfog_basic
from repro.core.state import SessionTable, SimState
from repro.workload.games import GAME_CATALOGUE
from repro.workload.overrides import FlashCrowdStage, WorkloadOverrides

CROWD = FlashCrowdStage(day=0, subcycle=20, players=150)


def run_crowd(game_weights=None, quality_ceiling=None, crowd=CROWD):
    """Fire ``crowd`` on a fresh state; return its joiners' games."""
    weights = None if game_weights is None else tuple(game_weights.items())
    state = SimState(cloudfog_basic(
        num_players=200, num_supernodes=6, seed=4,
        workload=WorkloadOverrides(game_weights=weights,
                                   quality_ceiling=quality_ceiling)))
    ctx = SimpleNamespace(day=crowd.day, subcycle=crowd.subcycle,
                          sessions=SessionTable(200), starts={})
    crowd(state, ctx)
    joiners = ctx.starts[crowd.subcycle].player.tolist()
    assert len(joiners) == crowd.players
    return state, [GAME_CATALOGUE[state.game_code[player]]
                   for player in joiners]


def test_crowd_draws_from_the_game_mix_under_the_ceiling():
    _, games = run_crowd({"ArenaStrike": 1.0, "KingdomSaga": 3.0},
                         quality_ceiling=4)
    names = {game.name for game in games}
    # KingdomSaga (level 5) streams as the level-4 game; the unweighted
    # BladeDuel and WarBanner are never drawn.
    assert names == {"ArenaStrike", "EmpireForge"}
    assert max(game.default_level for game in games) <= 4


def test_crowd_game_is_held_under_the_ceiling():
    crowd = FlashCrowdStage(day=0, subcycle=20, players=10,
                            game="KingdomSaga")
    _, games = run_crowd(quality_ceiling=2, crowd=crowd)
    assert {game.name for game in games} == {"BladeDuel"}


def test_unweighted_uncapped_crowd_keeps_the_uniform_draw():
    """Without a mix or a ceiling the crowd draws exactly as before:
    the joiner pick, then one uniform catalogue index per joiner."""
    state, games = run_crowd()
    rng = state.rng_factory.stream("scenario-flash-0-20")
    rng.choice(200, size=CROWD.players, replace=False)
    expected = [GAME_CATALOGUE[int(rng.integers(len(GAME_CATALOGUE)))]
                for _ in range(CROWD.players)]
    assert games == expected
    assert len({game.name for game in games}) == len(GAME_CATALOGUE)
