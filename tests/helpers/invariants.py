"""Supernode bookkeeping invariants, checked from inside a live sweep.

Crash handlers mutate the pool rows, the live list, the candidate
caches and the sweep's load timelines together; these helpers assert
that they still agree.  :func:`bookkeeping_stage` wraps the check as a
scenario stage (``state.scenario_stages``), so it runs after every
subcycle's departures and faults, before its arrivals.
"""

from __future__ import annotations

import numpy as np


def assert_supernode_bookkeeping(state, loads=None, subcycle=None,
                                 sessions=None) -> None:
    """The live list, the pool, the directory and the caches agree.

    * the pool's ``online`` column names exactly the live list;
    * directory answers and candidate lists name only live nodes;
    * dead nodes hold nobody;
    * no node holds, or is charged this subcycle's load of, more
      sessions than its capacity;
    * every player a node holds has an active session row on that node
      that has not ended before ``subcycle`` (the sweep is the only
      path that connects a player, and departures disconnect it), so a
      crash always finds a live session to re-home.
    """
    pool = state.supernode_pool
    live = state.live_supernodes
    live_ids = set(live)
    assert len(live_ids) == len(live), "live list repeats a supernode"
    assert np.flatnonzero(pool.online).tolist() == sorted(live_ids)
    capacity = pool.capacity.tolist()
    for sid in range(len(pool)):
        held = len(pool.connected[sid])
        if sid not in live_ids:
            assert held == 0, f"dead supernode {sid} holds {held}"
        assert held <= capacity[sid]
        if sessions is not None:
            cols = sessions.columns
            for player in pool.connected[sid]:
                assert cols.active[player] == 1 \
                    and cols.supernode_id[player] == sid \
                    and cols.end_subcycle[player] >= subcycle, \
                    f"supernode {sid} holds player {player} without " \
                    f"a live session on it"
    if loads is not None and subcycle is not None:
        for sid in live:
            row = loads.row(sid)
            if row is not None:
                assert loads.counts[row, subcycle] <= capacity[sid]
    for player in range(state.topology.num_players):
        for entry in state.candidates.candidates(player):
            assert entry.supernode_id in live_ids
        if state.directory is not None:
            assert set(state.directory.candidates_for(player, 8)) \
                <= live_ids


def bookkeeping_stage(log: list | None = None):
    """A scenario stage running :func:`assert_supernode_bookkeeping`.

    Appends ``(day, subcycle, live count)`` to ``log`` after each check,
    so a test can tell the stage ran.
    """
    def stage(state, ctx) -> None:
        assert_supernode_bookkeeping(state, ctx.loads, ctx.subcycle,
                                     ctx.sessions)
        if log is not None:
            log.append((ctx.day, ctx.subcycle, len(state.live_supernodes)))

    return stage
