"""Tests for the staged subcycle pipeline in repro.core.sweep:
stage ordering, state handoff through SweepContext, the day loop of
run_schedule, and façade construction equivalence."""

import numpy as np

from repro import obs
from repro.core import CloudFogSystem, cloudfog_basic
from repro.core import sweep
from repro.core.accounting import RunResult
from repro.core.state import SimState

SMALL = dict(num_players=150, num_supernodes=12, seed=3)


def _prepared_state(seed=3):
    state = SimState(cloudfog_basic(num_players=SMALL["num_players"],
                                    num_supernodes=SMALL["num_supernodes"],
                                    seed=seed))
    rng = np.random.default_rng(0)
    plans = sweep.sample_plans(state, rng)
    sweep.choose_games(state, plans, rng)
    return state, plans


def test_stages_run_in_order_every_subcycle(monkeypatch):
    """sweep_day reads SUBCYCLE_STAGES dynamically and runs the tuple
    in order at each of the day's subcycles."""
    calls = []

    def tracked(name, stage):
        def wrapper(state, ctx):
            calls.append((name, ctx.subcycle))
            return stage(state, ctx)
        return wrapper

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES", tuple(
        tracked(stage.__name__, stage)
        for stage in sweep.SUBCYCLE_STAGES))
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sweep.sweep_day(state, plans, rng, RunResult(), measuring=False)

    hours = state.config.schedule.hours_per_day
    expected = [(stage.__name__, subcycle)
                for subcycle in range(1, hours + 1)
                for stage in (sweep.stage_departures, sweep.stage_faults,
                              sweep.stage_scenario, sweep.stage_arrivals)]
    assert calls == expected


def test_stages_share_one_context(monkeypatch):
    """Every stage of a sweep receives the same mutable SweepContext."""
    seen = []

    def spy(state, ctx):
        seen.append(ctx)

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        (spy,) + sweep.SUBCYCLE_STAGES)
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, rng, RunResult(), measuring=False)
    assert len(set(map(id, seen))) == 1
    ctx = seen[0]
    # The returned structures are the context's own, handed through.
    assert ctx.sessions is sessions
    assert ctx.loads is loads
    assert ctx.cloud_rate is cloud_rate


def test_arrivals_populate_sessions_and_loads():
    state, plans = _prepared_state()
    rng = np.random.default_rng(1)
    sessions, loads, cloud_rate = sweep.sweep_day(
        state, plans, rng, RunResult(), measuring=False)
    assert len(sessions) == len(plans)
    # Committed load: supernode rows and the cloud line cover all
    # streaming sessions.
    assert loads.counts.max() > 0
    assert cloud_rate.max() > 0
    # Day's end disconnects everything.
    for sn in state.supernode_pool:
        assert sn.load == 0


def test_fault_stage_inert_without_plan(monkeypatch):
    """No FaultPlan → the fault stage never gets an RNG to act with."""
    contexts = []

    def spy(state, ctx):
        contexts.append(ctx)

    monkeypatch.setattr(sweep, "SUBCYCLE_STAGES",
                        sweep.SUBCYCLE_STAGES + (spy,))
    state, plans = _prepared_state()
    sweep.sweep_day(state, plans, np.random.default_rng(1), RunResult(),
                    measuring=False)
    assert all(ctx.fault_rng is None for ctx in contexts)


def test_facade_sweep_matches_module_function():
    """A façade-built state swept through the stage functions gives the
    same outputs as a directly built SimState: construction through
    CloudFogSystem adds nothing."""
    state, plans = _prepared_state()
    direct_sessions, direct_loads, direct_cloud = sweep.sweep_day(
        state, plans, np.random.default_rng(1), RunResult(),
        measuring=False)

    system = CloudFogSystem(cloudfog_basic(**SMALL))
    rng = np.random.default_rng(0)
    facade_plans = sweep.sample_plans(system.state, rng)
    sweep.choose_games(system.state, facade_plans, rng)
    facade_sessions, facade_loads, facade_cloud = sweep.sweep_day(
        system.state, facade_plans, np.random.default_rng(1), RunResult(),
        measuring=False)

    assert list(facade_sessions) == list(direct_sessions)
    players = direct_sessions.players()
    for field in ("kind", "supernode_id"):
        assert np.array_equal(
            getattr(facade_sessions.columns, field)[players],
            getattr(direct_sessions.columns, field)[players])
    assert np.array_equal(facade_loads.counts, direct_loads.counts)
    assert np.array_equal(facade_cloud, direct_cloud)


def test_run_day_appends_measured_metrics():
    state, _ = _prepared_state()
    result = RunResult()
    sweep.run_day(state, 0, result, measuring=False)
    assert result.days == []
    sweep.run_day(state, 1, result, measuring=True)
    assert len(result.days) == 1
    assert result.days[0].day == 1
    assert result.sessions


def test_run_schedule_runs_each_day_and_its_hook_in_a_cycle_day_span(
        monkeypatch):
    """Days run in order from ``start_day``; each day's ``on_day_end``
    hook fires after it, inside the same ``cycle_day`` span."""
    log = []
    monkeypatch.setattr(sweep, "run_day",
                        lambda state, day, result, measuring:
                        log.append(("day", day, measuring)))
    state, _ = _prepared_state()
    tracer, _ = obs.enable()
    try:
        result = sweep.run_schedule(
            state, 4, start_day=1,
            on_day_end=lambda _state, day, _result, total:
            log.append(("end", day, total)))
        spans = [span for span in tracer.finished
                 if span.name == "cycle_day"]
    finally:
        obs.disable()
    assert result.days == []
    # A 4-day run keeps 3 warm-up days (cloudfog_basic's 21, capped).
    assert log == [("day", 1, False), ("end", 1, 4),
                   ("day", 2, False), ("end", 2, 4),
                   ("day", 3, True), ("end", 3, 4)]
    assert [span.attrs["day"] for span in spans] == [1, 2, 3]
