"""Hypothesis strategies over :class:`WorkloadOverrides` values.

:data:`workloads` draws every field — participation (None included),
the weekly shape, the duration and start-time splits, a game mix over
catalogue names, timezone offsets, a quality ceiling, a downlink cap
below and above the stream bitrates, and up to two flash crowds on
days ``0 .. DAYS - 1``.
"""

from hypothesis import strategies as st

from repro.workload.games import GAME_CATALOGUE
from repro.workload.overrides import FlashCrowdStage, WorkloadOverrides

#: The run length the flash-crowd days are drawn for.
DAYS = 3
_NAMES = [game.name for game in GAME_CATALOGUE]


def _optional(strategy):
    return st.one_of(st.none(), strategy)


def _floats(low, high):
    return st.floats(min_value=low, max_value=high, allow_nan=False)


@st.composite
def duration_shares(draw):
    weights = draw(st.tuples(st.integers(0, 4), st.integers(0, 4),
                             st.integers(1, 4)))
    return tuple(w / sum(weights) for w in weights)


@st.composite
def game_weights(draw):
    names = draw(st.lists(st.sampled_from(_NAMES), min_size=1,
                          max_size=len(_NAMES), unique=True))
    return tuple((name, draw(_floats(0.1, 5.0))) for name in _NAMES
                 if name in names)


flash_crowds = st.builds(
    FlashCrowdStage,
    day=st.integers(0, DAYS - 1), subcycle=st.integers(1, 24),
    players=st.integers(1, 40), duration_hours=_floats(0.5, 4.0),
    game=_optional(st.sampled_from(_NAMES)))

workloads = st.builds(
    WorkloadOverrides,
    daily_participants=_optional(st.integers(1, 90)),
    weekly_weights=_optional(st.tuples(*[_floats(0.5, 1.5)] * 7)),
    duration_shares=_optional(duration_shares()),
    offpeak_share=_optional(_floats(0.0, 1.0)),
    game_weights=_optional(game_weights()),
    start_offsets=_optional(st.lists(st.integers(0, 23), min_size=1,
                                     max_size=6).map(tuple)),
    quality_ceiling=_optional(st.integers(1, 5)),
    # The catalogue streams at 0.3-1.8 Mbit/s: caps on both sides.
    downlink_cap_mbps=_optional(st.one_of(_floats(0.1, 0.3),
                                          _floats(1.8, 8.0))),
    flash_crowds=st.lists(flash_crowds, max_size=2).map(tuple))
