"""Properties of the columnar session log over generated day chunks.

A run appends one :class:`~repro.core.accounting.SessionLog` chunk per
measured day.  Whatever the chunks hold — every connection kind and
catalogue game, joined and sticky sessions, empty days — iterating the
log must give back the ``SessionRecord`` rows that went in, field for
field and ``repr`` for ``repr``; pickling (the shard workers' return
path) and the checkpoint chunk round trip must be exact; and the
column-wise shard merge must equal the frozen per-record merge
(``merge_oracle.py``).
"""

import pickle
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accounting import (SESSION_COLUMNS, DayMetrics, RunResult,
                                   SessionLog, SessionRecord)
from repro.core.entities import ConnectionKind
from repro.core.shard import merge_results
from repro.persist import capture_result, restore_result
from repro.workload.games import GAME_CATALOGUE

from ..helpers.sessions import log_of
from .merge_oracle import merge_results as merge_results_oracle

_floats = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False)


def _sessions(day: int, players: int):
    return st.lists(st.builds(
        SessionRecord,
        player=st.integers(0, players - 1), day=st.just(day),
        game=st.sampled_from([game.name for game in GAME_CATALOGUE]),
        kind=st.sampled_from(list(ConnectionKind)),
        target=st.integers(-1, 10_000), response_latency_ms=_floats,
        server_latency_ms=_floats, continuity=st.floats(0.0, 1.0),
        satisfied=st.booleans(), join_latency_ms=st.none() | _floats),
        max_size=6)


@st.composite
def _days(draw, players: int = 50, max_days: int = 5):
    """A run's measured days: a list of per-day record lists."""
    count = draw(st.integers(0, max_days))
    return [draw(_sessions(day, players)) for day in range(count)]


def _log(days) -> SessionLog:
    log = SessionLog()
    for records in days:
        log.extend(log_of(records))
    return log


def _reprs(rows) -> list[str]:
    return [repr(row) for row in rows]


@given(days=_days())
@settings(max_examples=60, deadline=None)
def test_appended_days_iterate_back_to_their_records(days):
    log = _log(days)
    records = [record for day in days for record in day]
    assert len(log) == len(records)
    assert _reprs(log) == _reprs(records)
    assert list(log) == records
    assert list(log_of(records)) == records
    for row in log:
        assert type(row.player) is int and type(row.target) is int
        assert type(row.continuity) is float
        assert type(row.satisfied) is bool
        assert row.join_latency_ms is None \
            or type(row.join_latency_ms) is float
    assert log.nbytes == len(records) * sum(
        np.dtype(dtype).itemsize for dtype in SESSION_COLUMNS.values())


@given(days=_days())
@settings(max_examples=40, deadline=None)
def test_pickle_and_checkpoint_round_trips_are_exact(days):
    log = _log(days)
    unpickled = pickle.loads(pickle.dumps(log))
    assert _reprs(unpickled) == _reprs(log)
    assert len(unpickled.chunks) == (1 if len(log) else 0)

    result = RunResult()
    result.sessions.extend(log)
    payload = capture_result(result)
    restored = restore_result(payload).sessions
    assert _reprs(restored) == _reprs(log)
    assert capture_result(restore_result(payload)) == payload


@st.composite
def _partitions(draw):
    """Per-partition results over shared measured days, and the global
    player ids each partition's local ids map to."""
    num_days = draw(st.integers(1, 3))
    parts, partitions = [], []
    pool = draw(st.permutations(range(40)))
    start = 0
    for index in range(draw(st.integers(1, 4))):
        size = draw(st.integers(1, 8))
        ids = np.array(sorted(pool[start:start + size]), dtype=np.int64)
        start += size
        days = [draw(_sessions(day, size)) for day in range(num_days)]
        result = RunResult()
        for day, records in enumerate(days):
            result.days.append(DayMetrics(
                day=day, online_players=len(records),
                supernode_players=sum(
                    r.kind is ConnectionKind.SUPERNODE for r in records),
                cloud_bandwidth_mbps=draw(_floats),
                mean_continuity=draw(st.floats(0.0, 1.0))))
            result.sessions.extend(log_of(records))
        result.join_latencies_ms.extend(draw(st.lists(_floats,
                                                      max_size=3)))
        parts.append(result)
        partitions.append(SimpleNamespace(index=index, player_ids=ids))
    return parts, partitions


@given(case=_partitions())
@settings(max_examples=60, deadline=None)
def test_column_merge_equals_the_per_record_merge(case):
    parts, partitions = case
    merged = merge_results(parts, partitions)
    expected = merge_results_oracle(parts, partitions)
    assert _reprs(merged.sessions) == _reprs(expected.sessions)
    assert merged.days == expected.days
    assert merged.join_latencies_ms == expected.join_latencies_ms
    assert merged.faults == expected.faults
