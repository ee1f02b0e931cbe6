"""``SessionColumns`` stays in lock-step with the ``Session`` objects.

Unit tests cover the bind/unbind/setter contract directly; the
property-style test appends a verifier stage to
:data:`~repro.core.sweep.SUBCYCLE_STAGES` and replays seed-randomised
chaos runs — joins, migrations, crashes, degradations, partitions,
update loss, departures — asserting after *every* subcycle that the
columnar mirror and the object table describe the same world.  Any
future mutation path that forgets to dual-write fails here before it
can corrupt a vectorised stage.
"""

import math

import numpy as np
import pytest

from repro.core import CloudFogSystem, sweep
from repro.core.columns import (
    KIND_CLOUD,
    KIND_NONE,
    KIND_SUPERNODE,
    SessionColumns,
)
from repro.core.entities import ConnectionKind, Supernode
from repro.core.state import _KIND_CODE, Session, SessionTable
from repro.faults.plan import FaultPlan
from repro.workload.churn import PlayerDayPlan

from ..faults.regen_golden import SCENARIOS


def make_session(player=3, kind=ConnectionKind.SUPERNODE, supernode_id=5):
    plan = PlayerDayPlan(player=player, start_subcycle=2,
                         duration_hours=3.0)
    return Session(plan, kind, supernode_id, 12.5, 30.0, 95.0)


# -- unit: bind / setters / unbind -------------------------------------
def test_bind_writes_the_full_row():
    cols = SessionColumns(8)
    session = make_session()
    session.bind_columns(cols, start=2, end=4, rate_mbps=4.5)
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == 5
    assert cols.kind[3] == KIND_SUPERNODE
    assert cols.rate_mbps[3] == 4.5
    assert cols.latency_ms[3] == 12.5
    assert cols.upstream_ms[3] == 30.0
    assert cols.start_subcycle[3] == 2
    assert cols.end_subcycle[3] == 4
    assert cols.join_latency_ms[3] == 95.0
    assert cols.degraded[3] == 0


def test_bind_overwrites_dead_garbage_from_an_earlier_session():
    cols = SessionColumns(8)
    stale = make_session()
    stale.bind_columns(cols, start=1, end=9, rate_mbps=9.0)
    stale.kind = ConnectionKind.CLOUD       # leaves degraded=1 behind
    stale.unbind_columns()

    fresh = Session(PlayerDayPlan(player=3, start_subcycle=5,
                                  duration_hours=1.0),
                    ConnectionKind.CLOUD, None, 40.0, 40.0, None)
    fresh.bind_columns(cols, start=5, end=5, rate_mbps=2.0)
    assert cols.active[3] == 1
    assert cols.supernode_id[3] == -1
    assert cols.kind[3] == KIND_CLOUD
    assert cols.degraded[3] == 0
    assert math.isnan(cols.join_latency_ms[3])


def test_setters_mirror_only_while_bound():
    cols = SessionColumns(8)
    session = make_session()
    session.supernode_id = 7                # unbound: object only
    assert cols.supernode_id[3] == -1
    session.bind_columns(cols, start=2, end=4, rate_mbps=4.5)
    session.supernode_id = 9
    session.downstream_one_way_ms = 20.0
    session.upstream_one_way_ms = 33.0
    assert cols.supernode_id[3] == 9
    assert cols.latency_ms[3] == 20.0
    assert cols.upstream_ms[3] == 33.0
    session.unbind_columns()
    session.supernode_id = 1                # unbound again: no write
    assert cols.supernode_id[3] == 9


def test_fog_to_cloud_fault_marks_degraded():
    cols = SessionColumns(8)
    session = make_session()
    session.bind_columns(cols, start=2, end=4, rate_mbps=4.5)
    session.kind = ConnectionKind.CLOUD
    assert cols.kind[3] == KIND_CLOUD
    assert cols.degraded[3] == 1
    # Cloud → cloud (or any non-fog source) must not re-flag.
    cols.degraded[3] = 0
    session.kind = ConnectionKind.CLOUD
    assert cols.degraded[3] == 0


def test_table_pop_clears_active():
    table = SessionTable(8)
    session = make_session()
    table.add(session, start=2, end=4, rate_mbps=4.5)
    assert table.columns.active[3] == 1
    assert table.pop(3) is session
    assert table.columns.active[3] == 0
    assert table.pop(3, "missing") == "missing"
    assert 3 not in table and len(table) == 0


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


# -- property: the mirror survives whole chaotic runs ------------------
def _assert_mirror_consistent(state, ctx):
    table = ctx.sessions
    cols = table.columns
    active = set(np.flatnonzero(cols.active == 1).tolist())
    assert active == set(table.keys())
    for player, session in table.items():
        expect_sid = (-1 if session.supernode_id is None
                      else session.supernode_id)
        assert cols.supernode_id[player] == expect_sid
        assert cols.kind[player] == _KIND_CODE.get(session.kind, KIND_NONE)
        assert cols.latency_ms[player] == session.downstream_one_way_ms
        assert cols.upstream_ms[player] == session.upstream_one_way_ms
        if session.join_latency_ms is None:
            assert math.isnan(cols.join_latency_ms[player])
        else:
            assert cols.join_latency_ms[player] == session.join_latency_ms
        # Sessions stay in the table after their window closes (the
        # day-end flush reads them), so only the lower bounds hold.
        assert cols.start_subcycle[player] <= ctx.subcycle
        assert cols.start_subcycle[player] <= cols.end_subcycle[player]


@pytest.mark.parametrize("seed", [0, 3, 11])
def test_columns_track_sessions_through_chaos(monkeypatch, seed):
    def verifier_stage(state, ctx):
        _assert_mirror_consistent(state, ctx)

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        sweep.SUBCYCLE_STAGES + (verifier_stage,))
    config = SCENARIOS["cloudfog_advanced"].with_(
        seed=seed,
        fault_plan=FaultPlan.poisson(rate_per_day=4.0, days=2,
                                     seed=seed + 100))
    result = CloudFogSystem(config).run(days=2)
    assert result.days  # the run actually measured something
