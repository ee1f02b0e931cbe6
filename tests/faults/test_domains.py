"""Correlated failure domains: dc/regional outages, preemption, partition.

Behavioural coverage of the domain-level fault kinds plus the two
opt-in resilience policies (admission backpressure and self-healing
re-provisioning).  Observability is enabled per-test so the structured
event stream can be asserted on alongside the resilience ledger.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced
from repro.core.entities import ConnectionKind
from repro.faults.plan import (AdmissionPolicy, FaultEvent, FaultPlan,
                               HealingPolicy)

from ..helpers.events import held_events


@pytest.fixture(autouse=True)
def _observability():
    obs.enable()
    yield
    obs.disable()


def _run(plan, *, days=1, num_players=200, num_supernodes=12,
         num_datacenters=3, seed=2):
    config = cloudfog_advanced(
        num_players=num_players, num_supernodes=num_supernodes,
        num_datacenters=num_datacenters, seed=seed, fault_plan=plan)
    system = CloudFogSystem(config)
    result = system.run(days=days)
    return system, result


def _events(kind):
    return held_events(obs.get_events(), kind)


# -- dc_outage -----------------------------------------------------------

def test_dc_outage_fails_the_whole_datacenter_together():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="dc_outage", datacenter=0),))
    system, result = _run(plan)
    summary = result.faults
    assert summary.events_applied == 1
    assert summary.displaced > 0  # the domain died with sessions live
    assert summary.conserved()
    outages = _events("domain_outage")
    assert len(outages) == 1
    assert outages[0].attrs["fault_kind"] == "dc_outage"
    assert outages[0].attrs["datacenter"] == 0
    assert outages[0].attrs["lost"] > 1  # correlated: many at once
    # Every supernode homed to datacenter 0 went down with it.
    nearest = np.argmin(
        system._state.topology.player_datacenter_distances(), axis=1)
    hosts = system.state.supernode_pool.host_player
    assert not any(int(nearest[hosts[sid]]) == 0
                   for sid in system.state.live_supernodes)


def test_dc_outage_reroutes_cloud_sessions_to_next_datacenter():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="dc_outage", datacenter=0),))
    # Few supernodes: most sessions stream from the cloud, so some are
    # live in the dying datacenter when it goes dark.
    _run(plan, num_supernodes=4)
    rerouted = _events("cloud_rerouted")
    assert rerouted, "cloud sessions homed to dc0 must pay the re-route"
    assert all(e.attrs["datacenter"] == 0 for e in rerouted)
    assert sum(e.attrs["sessions"] for e in rerouted) > 0


# -- regional_outage -----------------------------------------------------

def test_regional_outage_kills_everything_inside_the_radius():
    # A blast radius covering the whole grid takes every supernode down.
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="regional_outage",
                   center_x_km=0.0, center_y_km=0.0, radius_km=1e9),))
    system, result = _run(plan)
    summary = result.faults
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.degraded > 0  # nowhere left to re-home: cloud
    outage = _events("domain_outage")[0]
    assert outage.attrs["fault_kind"] == "regional_outage"
    assert outage.attrs["lost"] > 1


def test_regional_outage_radius_is_selective():
    """A tiny radius far from everything touches nothing."""
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="regional_outage",
                   center_x_km=1e6, center_y_km=1e6, radius_km=0.1),))
    _, result = _run(plan)
    assert result.faults.events_applied == 1
    assert result.faults.displaced == 0
    assert not _events("domain_outage")  # no targets, no outage


# -- preempt -------------------------------------------------------------

def test_preempt_with_warning_drains_gracefully():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="preempt", count=6,
                   warning_subcycles=2),))
    _, result = _run(plan)
    summary = result.faults
    assert summary.displaced > 0
    assert summary.conserved()
    # Every displaced session of an announced preemption drains
    # gracefully (cheap announced detection, no stall penalty) —
    # except the ones the player abandoned outright.
    assert summary.drained == summary.displaced - summary.dropped
    assert _events("domain_outage")[0].attrs["graceful"] is True


def test_unannounced_preempt_behaves_like_a_correlated_crash():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="preempt", count=6),))
    _, result = _run(plan)
    summary = result.faults
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.drained == 0
    assert _events("domain_outage")[0].attrs["graceful"] is False


def test_graceful_drain_recovers_faster_than_detection():
    """Announced reclaims skip the timeout-detection latency, so the
    recovery distribution sits strictly below the unannounced one."""
    base = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="preempt", count=6),))
    warned = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="preempt", count=6,
                   warning_subcycles=2),))
    _, cold = _run(base)
    obs.disable(), obs.enable()  # fresh event log between runs
    _, warm = _run(warned)
    assert cold.faults.time_to_recover_ms and warm.faults.time_to_recover_ms
    assert (float(np.median(warm.faults.time_to_recover_ms))
            < float(np.median(cold.faults.time_to_recover_ms)))


# -- partition -----------------------------------------------------------

def test_partition_queues_then_resolves_displaced_sessions():
    # Sever the fog-cloud link, then kill almost every supernode inside
    # the window: displaced sessions that cannot re-home must queue.
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=10, kind="partition",
                   duration_subcycles=8),
        FaultEvent(day=0, subcycle=11, kind="crash", count=11),))
    _, result = _run(plan)
    summary = result.faults
    assert summary.conserved()
    queued = _events("session_queued")
    assert queued, "partition must force displaced sessions to queue"
    # Each queued session resolves exactly once.  Here the window
    # outlives every queued session, so all of them are shed (the
    # degrade branch is pinned by the next test).
    assert summary.shed == len(queued)
    assert len(_events("session_shed")) == len(queued)
    assert _events("fog_cloud_partition")[0].attrs["until_subcycle"] == 17


def test_partition_drains_queued_sessions_to_the_cloud():
    # A short window closing before the orphans' play windows end: the
    # queue drains at subcycle 20 and every queued session degrades to
    # the cloud, paying the stalled wait as a continuity penalty.
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=18, kind="partition",
                   duration_subcycles=2),
        FaultEvent(day=0, subcycle=18, kind="crash", count=11),))
    system, result = _run(plan, seed=3)
    summary = result.faults
    assert summary.conserved()
    queued = {e.attrs["player"] for e in _events("session_queued")}
    drained = [e for e in _events("cloud_fallback")
               if e.attrs["from_supernode"] is None]
    assert len(queued) == 3
    assert {e.attrs["player"] for e in drained} == queued
    assert all(e.subcycle == 20 for e in drained)
    assert summary.degraded == 3 and summary.shed == 0
    penalties = system._state.faults.penalties
    assert all(penalties.get(player, 0.0) > 0.0 for player in queued)
    records = [r for r in result.sessions if r.player in queued]
    assert len(records) == 3
    assert all(r.kind is ConnectionKind.CLOUD for r in records)


def test_partition_outliving_sessions_sheds_them():
    # The window runs to end of day (subcycles 10..24, stated
    # explicitly — overruns are rejected), so queued sessions can never
    # be flushed back to the cloud: the day-end flush sheds them.
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=10, kind="partition",
                   duration_subcycles=15),
        FaultEvent(day=0, subcycle=11, kind="crash", count=11),))
    _, result = _run(plan)
    summary = result.faults
    assert summary.conserved()
    queued = _events("session_queued")
    assert queued
    assert summary.shed == len(queued)
    assert len(_events("session_shed")) == len(queued)


# -- admission backpressure ---------------------------------------------

def test_admission_cap_sheds_cloud_joins():
    plan = FaultPlan(admission=AdmissionPolicy(max_cloud_sessions=0))
    _, result = _run(plan, num_supernodes=6)
    summary = result.faults
    assert summary.joins_shed > 0
    assert _events("join_shed")
    # With the cap at zero no join ever became a cloud session.
    assert not any(r.kind is ConnectionKind.CLOUD for r in result.sessions)
    # Shed joins sit outside the displacement ledger.
    assert summary.displaced == 0
    assert summary.conserved()


def test_admission_sheds_joins_during_partition_window():
    plan = FaultPlan(
        events=(FaultEvent(day=0, subcycle=8, kind="partition",
                           duration_subcycles=10),),
        admission=AdmissionPolicy(shed_during_partition=True))
    _, result = _run(plan, num_supernodes=6)
    assert result.faults.joins_shed > 0
    shed = _events("join_shed")
    assert shed
    assert all(8 <= e.subcycle <= 17 for e in shed)


def test_no_admission_policy_keeps_all_joins():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=8, kind="partition",
                   duration_subcycles=10),))
    _, result = _run(plan, num_supernodes=6)
    assert result.faults.joins_shed == 0
    assert not _events("join_shed")


# -- self-healing re-provisioning ---------------------------------------

def test_healing_spins_up_replacement_capacity():
    plan = FaultPlan(
        events=(FaultEvent(day=0, subcycle=10, kind="dc_outage",
                           datacenter=0),),
        healing=HealingPolicy(delay_subcycles=2, replacement_share=1.0))
    system, result = _run(plan)
    assert result.faults.conserved()
    healed = _events("capacity_healed")
    assert healed, "a confirmed domain loss must trigger re-provisioning"
    assert healed[0].subcycle == 12  # outage at 10 + delay 2
    assert healed[0].attrs["healed"] >= 1
    # Replacements never resurrect the nodes that just failed.
    failed = {e.attrs["datacenter"] for e in _events("domain_outage")}
    assert failed == {0}
    assert set(healed[0].attrs["supernode_ids"]) \
        <= set(system.state.live_supernodes)


def test_healing_reports_exhaustion_when_no_spares_remain():
    # Deploy everything, then kill the world: nothing left to heal with.
    plan = FaultPlan(
        events=(FaultEvent(day=0, subcycle=10, kind="regional_outage",
                           center_x_km=0.0, center_y_km=0.0,
                           radius_km=1e9),),
        healing=HealingPolicy(delay_subcycles=2))
    _, result = _run(plan)
    assert result.faults.conserved()
    assert _events("capacity_healed") or _events("heal_exhausted")
