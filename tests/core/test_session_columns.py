"""``SessionColumns`` rows are the sessions: their invariants hold.

Unit tests cover the table's insert/discard contract directly; the
property-style test appends a verifier stage to
:data:`~repro.core.sweep.SUBCYCLE_STAGES` and replays seed-randomised
chaos runs — joins, migrations, crashes, degradations, partitions,
update loss, departures — asserting after *every* subcycle that every
live row describes a consistent session: its kind agrees with its
supernode id, its window has started, and an open fog session is
connected to the supernode its row names.  Any mutation path that
updates one field of a row and forgets another fails here before it
can corrupt a vectorised stage.
"""

import numpy as np
import pytest

from repro.core import CloudFogSystem, sweep
from repro.core.columns import KIND_CLOUD, KIND_NONE, KIND_SUPERNODE
from repro.core.entities import ConnectionKind, Supernode
from repro.core.state import JoinOutcome, SessionTable
from repro.faults.plan import FaultPlan

from ..faults.regen_golden import SCENARIOS

FOG = JoinOutcome(ConnectionKind.SUPERNODE, 5, 12.5, 30.0, 95.0)


# -- unit: add / discard -----------------------------------------------
def test_add_writes_the_full_row():
    table = SessionTable(8)
    table.add([3], 2, [4], [FOG])
    cols = table.columns
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == 5
    assert cols.kind[3] == KIND_SUPERNODE
    assert cols.latency_ms[3] == 12.5
    assert cols.upstream_ms[3] == 30.0
    assert cols.start_subcycle[3] == 2
    assert cols.end_subcycle[3] == 4
    assert cols.join_latency_ms[3] == 95.0
    assert 3 in table and len(table) == 1


def test_add_overwrites_dead_garbage_from_an_earlier_session():
    table = SessionTable(8)
    table.add([3], 1, [9], [FOG])
    table.discard(3)
    table.add([3], 5, [5], [JoinOutcome(ConnectionKind.CLOUD, None, 40.0,
                                        40.0, None)])
    cols = table.columns
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == -1
    assert cols.kind[3] == KIND_CLOUD
    assert cols.latency_ms[3] == 40.0
    assert (cols.start_subcycle[3], cols.end_subcycle[3]) == (5, 5)
    assert cols.join_latency_ms[3] is None


def test_table_keeps_insertion_order_of_live_players():
    table = SessionTable(8)
    table.add([6, 1], 1, [2, 2], [FOG, FOG])
    table.add([4], 2, [3], [FOG])
    assert table.players().tolist() == [6, 1, 4]
    table.discard(1)
    table.add([1], 3, [3], [FOG])
    assert list(table) == [6, 4, 1]


def test_table_discard_clears_active():
    table = SessionTable(8)
    table.add([3], 2, [4], [FOG])
    assert table.columns.active[3] == 1
    table.discard(3)
    assert table.columns.active[3] == 0
    table.discard(3)  # no session: nothing to do
    assert 3 not in table and len(table) == 0


def test_records_share_the_join_latency_float():
    """A scored record holds the join's own latency float, the object
    ``RunResult.join_latencies_ms`` also holds: a run keeps every
    record, so a copy per record would grow its peak memory."""
    result = CloudFogSystem(SCENARIOS["cloudfog_advanced"]).run(days=2)
    shared = {id(ms) for ms in result.join_latencies_ms}
    joined = [r.join_latency_ms for r in result.sessions
              if r.join_latency_ms is not None]
    assert joined
    assert all(id(ms) in shared for ms in joined)


def test_disconnect_many_matches_sequential_disconnects():
    def build():
        sn = Supernode(supernode_id=0, host_player=99, capacity=8,
                       upload_mbps=30.0, access_ms=5.0)
        for player in range(8):
            sn.connect(player)
        return sn

    one, many = build(), build()
    for player in (1, 4, 6):
        one.disconnect(player)
    many.disconnect_many([1, 4, 6])
    assert one.connected == many.connected
    assert one.has_capacity == many.has_capacity


# -- property: the row invariants survive whole chaotic runs -----------
def _assert_rows_consistent(state, ctx):
    table = ctx.sessions
    cols = table.columns
    live = np.flatnonzero(cols.active == 1)
    assert set(live.tolist()) == set(table)
    assert not np.any(cols.kind[live] == KIND_NONE)
    fog = cols.supernode_id[live] >= 0
    assert np.array_equal(fog, cols.kind[live] == KIND_SUPERNODE)
    # Sessions stay in the table after their window closes (the
    # day-end flush reads them), so only the lower bounds hold.
    assert np.all(cols.start_subcycle[live] <= ctx.subcycle)
    assert np.all(cols.start_subcycle[live] <= cols.end_subcycle[live])
    open_fog = live[fog & (cols.end_subcycle[live] >= ctx.subcycle)]
    pool = state.supernode_pool
    for player, sid in zip(open_fog.tolist(),
                           cols.supernode_id[open_fog].tolist()):
        assert player in pool[sid].connected


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_columns_track_sessions_through_chaos(monkeypatch, seed):
    checked = []

    def verifier_stage(state, ctx):
        _assert_rows_consistent(state, ctx)
        checked.append(len(ctx.sessions))

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        sweep.SUBCYCLE_STAGES + (verifier_stage,))
    config = SCENARIOS["cloudfog_advanced"].with_(
        seed=seed,
        fault_plan=FaultPlan.poisson(rate_per_day=4.0, days=2,
                                     seed=seed + 100))
    result = CloudFogSystem(config).run(days=2)
    assert result.days  # the run actually measured something
    assert result.faults.displaced > 0  # and a fault moved sessions
    assert len(checked) == 48 and max(checked) > 0
