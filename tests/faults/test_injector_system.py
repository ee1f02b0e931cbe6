"""In-run fault injection through the subcycle sweep."""

import numpy as np
import pytest

from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced
from repro.core.entities import ConnectionKind
from repro.experiments.chaos import baseline_chaos_plan, run_chaos
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


def test_transient_refusals_drive_retries():
    """Handshake timeouts push displaced players into backoff retries.

    The candidate-list rung needs no cloud round trip, so to exercise
    the retry machinery the lists are wiped first — every displaced
    player must then re-ask the cloud, where each round's handshake
    times out with the plan's ``transient_refusal_prob``.
    """
    plan = FaultPlan(transient_refusal_prob=0.9)
    system = CloudFogSystem(cloudfog_advanced(
        num_players=200, num_supernodes=12, seed=2, fault_plan=plan))
    rng = np.random.default_rng(0)
    system.run(days=1)
    player = 0
    for sid in system.live_supernodes:
        for _ in range(3):
            system.supernode_pool.connect(sid, player)
            player += 1
    system.candidates.forget_supernodes(
        set(range(len(system.supernode_pool))))
    latencies = system.fail_supernodes(3, rng)
    summary = system.fault_outcomes
    assert summary.displaced > 0
    assert summary.conserved()
    assert summary.retries > 0
    assert summary.recovered == len(latencies)


def test_baseline_chaos_rate_keeps_median_recovery_sub_second():
    """The §3.2.2 claim under the sweep's baseline crash rate."""
    result = _run(baseline_chaos_plan(1.0, 4, seed=0), days=4)
    summary = result.faults
    assert summary.recovered > 0
    assert summary.conserved()
    assert float(np.median(summary.time_to_recover_ms)) < 1000.0


# -- non-crash fault kinds ----------------------------------------------

def test_flaky_event_caps_throttle():
    system = CloudFogSystem(cloudfog_advanced(
        num_players=150, num_supernodes=10, seed=2,
        fault_plan=FaultPlan()))
    system.run(days=1)
    throttle = system.supernode_pool.throttle
    before = throttle.copy()
    event = FaultEvent(day=0, subcycle=1, kind="flaky", severity=0.3,
                       count=len(system.live_supernodes))
    handlers.inject_flaky(system.state, event, np.random.default_rng(0))
    for sid in system.live_supernodes:
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
