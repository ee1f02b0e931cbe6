"""Hand-built workload values are checked at construction.

:mod:`repro.workload.overrides` is the one validator of a run's
workload: every value below used to build without complaint and then
failed mid-run (``IndexError``, ``KeyError``, a bare numpy error) or ran
silently wrong (no ceiling, one player a day, a crowd that never
fires).  Each is now refused when it is built, with its field named.
"""

import pytest

from repro.core.config import cloudfog_advanced
from repro.persist import config_from_dict, config_to_dict
from repro.workload.overrides import FlashCrowdStage, WorkloadOverrides


@pytest.mark.parametrize("kwargs, field", [
    ({"weekly_weights": (1.0, 1.0, 1.0)}, "weekly_weights"),
    ({"weekly_weights": (-1.0,) * 7}, "weekly_weights"),
    ({"game_weights": (("Tetris", 1.0),)}, "game_weights"),
    ({"game_weights": (("ArenaStrike", 0.0),)}, "game_weights"),
    ({"quality_ceiling": 9}, "quality_ceiling"),
    ({"daily_participants": -4}, "daily_participants"),
    ({"downlink_cap_mbps": -1.5}, "downlink_cap_mbps"),
    ({"start_offsets": (0, -3)}, "start_offsets"),
    ({"start_offsets": ()}, "start_offsets"),
    ({"offpeak_share": 1.5}, "offpeak_share"),
    ({"duration_shares": (0.5, 0.5)}, "duration_shares"),
    ({"flash_crowds": ({"day": 1, "subcycle": 2, "players": 5},)},
     "flash_crowds"),
])
def test_bad_workload_values_are_refused(kwargs, field):
    with pytest.raises(ValueError, match=rf"^{field}: "):
        WorkloadOverrides(**kwargs)


@pytest.mark.parametrize("kwargs, field", [
    ({"game": "nope"}, "game"),
    ({"players": -4}, "players"),
    ({"subcycle": 0}, "subcycle"),
    ({"day": -1}, "day"),
    ({"duration_hours": 0.0}, "duration_hours"),
])
def test_bad_flash_crowds_are_refused(kwargs, field):
    crowd = {"day": 1, "subcycle": 20, "players": 10}
    crowd.update(kwargs)
    with pytest.raises(ValueError, match=rf"^{field}: "):
        FlashCrowdStage(**crowd)


def test_values_are_stored_in_one_canonical_form():
    """Lists, integers and any game order build the same value as the
    tuples, floats and catalogue order a document parses into."""
    loose = WorkloadOverrides(
        weekly_weights=[1, 1, 1, 1, 1, 2, 2], offpeak_share=0,
        game_weights=[["KingdomSaga", 1], ["ArenaStrike", 3]],
        start_offsets=[0, 5],
        flash_crowds=[FlashCrowdStage(day=1, subcycle=20, players=10,
                                      duration_hours=3)])
    assert loose == WorkloadOverrides(
        weekly_weights=(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0),
        offpeak_share=0.0,
        game_weights=(("ArenaStrike", 3.0), ("KingdomSaga", 1.0)),
        start_offsets=(0, 5),
        flash_crowds=(FlashCrowdStage(day=1, subcycle=20, players=10,
                                      duration_hours=3.0),))
    assert isinstance(loose.flash_crowds[0].duration_hours, float)


def test_checkpoint_configs_pass_the_same_check():
    data = config_to_dict(cloudfog_advanced(num_players=60,
                                            num_supernodes=6))
    data["workload"]["quality_ceiling"] = 9
    with pytest.raises(ValueError, match="^quality_ceiling: "):
        config_from_dict(data)
