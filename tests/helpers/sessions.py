"""Session logs for tests: a :class:`~repro.core.accounting.SessionLog`
of ``SessionRecord`` rows, and generated chunk columns."""

from __future__ import annotations

import math

from hypothesis import strategies as st

from repro.core.accounting import SessionLog
from repro.core.state import KIND_OF_CODE
from repro.workload.games import GAME_CATALOGUE, GAME_CODE

_CODE_OF_KIND = {kind: code for code, kind in KIND_OF_CODE.items()}


def log_of(records) -> SessionLog:
    """A one-chunk log holding ``records`` (``SessionRecord`` rows)."""
    records = list(records)
    joins = [r.join_latency_ms for r in records]
    return SessionLog.of(
        player=[r.player for r in records], day=[r.day for r in records],
        game=[GAME_CODE[r.game] for r in records],
        kind=[_CODE_OF_KIND[r.kind] for r in records],
        target=[r.target for r in records],
        response_latency_ms=[r.response_latency_ms for r in records],
        server_latency_ms=[r.server_latency_ms for r in records],
        continuity=[r.continuity for r in records],
        satisfied=[r.satisfied for r in records],
        join_latency_ms=[math.nan if ms is None else ms for ms in joins],
        joined=[ms is not None for ms in joins])


_finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def chunk_columns(draw, min_rows: int = 1, max_rows: int = 6) -> dict:
    """The columns of one :class:`SessionLog` chunk: any catalogue game,
    every ``KIND_*`` code, joined and unjoined rows (NaN join latency
    where not joined)."""
    rows = draw(st.integers(min_rows, max_rows))

    def column(elements):
        return draw(st.lists(elements, min_size=rows, max_size=rows))

    joined = column(st.booleans())
    return dict(
        player=column(st.integers(0, 2**31 - 1)),
        day=column(st.integers(0, 2**31 - 1)),
        game=column(st.integers(0, len(GAME_CATALOGUE) - 1)),
        kind=column(st.sampled_from(sorted(KIND_OF_CODE))),
        target=column(st.integers(-1, 2**31 - 1)),
        response_latency_ms=column(_finite),
        server_latency_ms=column(_finite),
        continuity=column(st.floats(0.0, 1.0)),
        satisfied=column(st.booleans()),
        join_latency_ms=[ms if ok else math.nan
                         for ms, ok in zip(column(_finite), joined)],
        joined=joined)
