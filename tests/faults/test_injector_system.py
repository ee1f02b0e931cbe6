"""In-run fault injection through the subcycle sweep."""

import math

import numpy as np
import pytest

from repro.core import CloudFogSystem, lifecycle
from repro.core.config import cloudfog_advanced
from repro.core.entities import ConnectionKind
from repro.experiments.chaos import (baseline_chaos_plan, chaos_failure_sweep,
                                     chaos_scenario, run_chaos)
from repro.faults import FaultInjector, NULL_INJECTOR, build_injector, handlers
from repro.faults.plan import FaultEvent, FaultPlan


def _run(plan, days=2, seed=3, num_players=200, num_supernodes=12):
    return run_chaos(plan, days=days, seed=seed, num_players=num_players,
                     num_supernodes=num_supernodes)


# -- injector objects ----------------------------------------------------

def test_build_injector_returns_shared_null_object():
    assert build_injector(None) is NULL_INJECTOR
    assert not NULL_INJECTOR.active
    assert NULL_INJECTOR.plan is None
    assert NULL_INJECTOR.penalties == {}


def test_live_injector_penalties_compose_multiplicatively():
    injector = build_injector(FaultPlan())
    assert isinstance(injector, FaultInjector)
    injector.add_penalty(7, 0.1)
    injector.add_penalty(7, 0.1)
    # Two independent 10 % hits leave 81 % => 19 % lost.
    assert injector.penalties[7] == pytest.approx(0.19)
    injector.add_penalty(7, 0.0)  # no-op
    assert injector.penalties[7] == pytest.approx(0.19)
    injector.add_penalty(7, 5.0)  # clipped: everything lost
    assert injector.penalties[7] == pytest.approx(1.0)
    injector.start_day(1)
    assert injector.penalties == {}


# -- crash: conservation, re-homing, degradation -------------------------

def test_in_run_crashes_conserve_and_recover():
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=10, kind="crash"),
        FaultEvent(day=0, subcycle=20, kind="crash"),
        FaultEvent(day=1, subcycle=14, kind="crash", count=2),
    ))
    result = _run(plan)
    summary = result.faults
    assert summary.events_applied == len(plan)
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.recovered > 0
    # Recovery latencies include detection, so they sit well above the
    # bare reconnect cost but stay sub-second at the baseline scale.
    assert len(summary.time_to_recover_ms) == summary.recovered
    assert float(np.median(summary.time_to_recover_ms)) < 1000.0


def test_mass_crash_degrades_to_cloud_without_losing_sessions():
    """Killing almost every supernode overflows the survivor."""
    plan = FaultPlan(events=(
        FaultEvent(day=0, subcycle=12, kind="crash", count=11),))
    result = _run(plan, days=1)
    summary = result.faults
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.degraded > 0
    # Degraded sessions were scored as direct cloud streaming.
    assert any(r.kind is ConnectionKind.CLOUD for r in result.sessions)


def test_refused_handshake_degrades_after_one_selection_round(monkeypatch):
    """A timed-out handshake sends the displaced player to the cloud.

    The candidate-list rung needs no cloud round trip, so a scenario
    stage wipes the lists after every subcycle's faults — a player
    displaced by the peak-hour crash that has not joined since must
    then ask the cloud, where the round's handshake times out with the
    plan's ``transient_refusal_prob``.  §3.2.2 has one cloud round: a
    refusal degrades the player, it never asks again.
    """
    selections = []
    rungs = []  # (via, selection rounds) per migration
    select = lifecycle.select_supernode
    migrate = handlers.migrate

    def counting_select(*args, **kwargs):
        selections.append(None)
        return select(*args, **kwargs)

    def counting_migrate(*args, **kwargs):
        before = len(selections)
        outcome = migrate(*args, **kwargs)
        rungs.append((outcome.via, len(selections) - before))
        return outcome

    monkeypatch.setattr(lifecycle, "select_supernode", counting_select)
    monkeypatch.setattr(handlers, "migrate", counting_migrate)
    plan = FaultPlan(events=(
        FaultEvent(day=1, subcycle=21, kind="crash", count=3),),
        transient_refusal_prob=0.9)
    system = CloudFogSystem(cloudfog_advanced(
        num_players=200, num_supernodes=12, seed=2, fault_plan=plan))

    def forget_candidates(state, _ctx):
        state.candidates.forget_supernodes(
            set(range(len(state.supernode_pool))))

    system.state.scenario_stages = (forget_candidates,)
    summary = system.run(days=2).faults
    assert summary.displaced > 0
    assert len(rungs) == summary.displaced
    assert all(rounds == (via != "candidates") for via, rounds in rungs)
    assert any(via == "cloud" for via, _ in rungs)
    assert summary.degraded > 0
    assert summary.retries == 0
    assert summary.conserved()
    assert summary.recovered == len(summary.time_to_recover_ms)


def test_baseline_chaos_rate_keeps_median_recovery_sub_second():
    """The §3.2.2 claim under the sweep's baseline crash rate."""
    result = _run(baseline_chaos_plan(1.0, 4, seed=0), days=4)
    summary = result.faults
    assert summary.recovered > 0
    assert summary.conserved()
    assert float(np.median(summary.time_to_recover_ms)) < 1000.0


def test_chaos_tables_report_nan_recovery_when_nothing_recovered():
    """No recovery is no data, not a 0 ms time-to-recover."""
    sweep = chaos_failure_sweep(rates=(0.0,), days=2, num_players=80,
                                num_supernodes=6)
    assert sweep.column("displaced") == [0]
    assert math.isnan(sweep.column("median ttr (ms)")[0])
    assert math.isnan(sweep.column("p95 ttr (ms)")[0])
    summary = chaos_scenario(FaultPlan(), days=2, num_players=80,
                             num_supernodes=6)
    rows = dict(zip(summary.column("metric"), summary.column("value")))
    assert rows["recovered (supernode)"] == 0
    assert math.isnan(rows["median time-to-recover (ms)"])


# -- non-crash fault kinds ----------------------------------------------

def test_flaky_event_caps_throttle():
    system = CloudFogSystem(cloudfog_advanced(
        num_players=150, num_supernodes=10, seed=2,
        fault_plan=FaultPlan()))
    system.run(days=1)
    throttle = system.state.supernode_pool.throttle
    before = throttle.copy()
    event = FaultEvent(day=0, subcycle=1, kind="flaky", severity=0.3,
                       count=len(system.state.live_supernodes))
    handlers.inject_flaky(system.state, event, np.random.default_rng(0))
    for sid in system.state.live_supernodes:
        assert throttle[sid] == min(before[sid], 0.3)


def test_link_degradation_raises_latency_vs_baseline():
    events = tuple(FaultEvent(day=0, subcycle=s, kind="degrade_link",
                              extra_ms=80.0) for s in (6, 12, 18))
    base = _run(FaultPlan(), days=1)
    hit = _run(FaultPlan(events=events), days=1)
    assert hit.faults.events_applied == 3
    assert (hit.days[0].mean_response_latency_ms
            > base.days[0].mean_response_latency_ms)


def test_update_loss_lowers_continuity_vs_baseline():
    events = tuple(FaultEvent(day=0, subcycle=s, kind="lose_updates",
                              severity=0.6, duration_subcycles=4)
                   for s in (4, 10, 16))
    base = _run(FaultPlan(), days=1)
    hit = _run(FaultPlan(events=events), days=1)
    assert hit.faults.events_applied == 3
    assert hit.days[0].mean_continuity < base.days[0].mean_continuity


def test_empty_plan_run_matches_no_plan_day_outputs():
    """An active injector with nothing scheduled changes nothing."""
    base = CloudFogSystem(cloudfog_advanced(
        num_players=150, num_supernodes=10, seed=4)).run(days=2)
    empty = _run(FaultPlan(), days=2, seed=4, num_players=150,
                 num_supernodes=10)
    assert empty.faults.displaced == 0
    for a, b in zip(base.days, empty.days):
        assert a == b
