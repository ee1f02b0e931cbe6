"""Day/subcycle orchestrator: the staged sweep pipeline.

The top of the core layering.  One day runs as the §4.1 cycle:

1. throttle re-roll (``stage`` order documented in :data:`run_day`);
2. weekly server assignment;
3. day plans (one :class:`~repro.workload.churn.DayPlans` of columns)
   + social game choice;
4. the subcycle sweep — per subcycle the explicit stage tuple
   :data:`SUBCYCLE_STAGES` runs in order: departures → fault
   injection (which walks the migration ladder) → scenario hooks
   (flash crowds and other ``repro.scenarios`` stages, a no-op by
   default) → arrivals/joins;
5. session scoring (``core.scoring``) and ratings;
6. accounting (``core.accounting``): credits, day metrics, Eq.-2
   bandwidth.

Every function operates on a :class:`~repro.core.state.SimState`;
:class:`~repro.core.system.CloudFogSystem` is a thin façade over this
module.  The stage tuple is read dynamically so tests can monkeypatch
it to assert ordering and state handoff.

Layering: may import every lower core stage and ``faults.handlers`` —
never ``core.system`` or ``experiments`` (``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..faults import FAULT_COUNTS, handlers
from ..workload.churn import DayPlans, sample_day_plans
from ..workload.games import STREAM_RATE_MBPS, random_codes, weighted_codes
from ..workload.population import choose_game
from .accounting import (RunResult, SweepLoads, cloud_bandwidth,
                         credit_contributors, summarize_day)
from .columns import KIND_CLOUD, KIND_SUPERNODE
from .lifecycle import admit_joins, join
from .scoring import score_sessions
from .server_assignment import assign_players_randomly, assign_players_socially
from .state import KIND_OF_CODE, SessionTable, SimState, deploy

__all__ = ["SweepContext", "SUBCYCLE_STAGES", "stage_departures",
           "stage_faults", "stage_scenario", "stage_arrivals",
           "sample_plans", "choose_games", "start_cohorts", "sweep_day",
           "run_server_assignment", "run_provisioning", "day_end_flush", "run_day",
           "run_schedule"]

_log = obs.get_logger(__name__)


# ----------------------------------------------------------------------
# plans / games
# ----------------------------------------------------------------------
def sample_plans(state: SimState, rng: np.random.Generator,
                 day: int = 0) -> DayPlans:
    n = state.topology.num_players
    workload = state.config.workload
    if workload.daily_participants is not None:
        weight = 1.0
        if workload.weekly_weights is not None:
            weight = float(workload.weekly_weights[day % 7])
        count = min(n, int(round(workload.daily_participants * weight)))
        players = rng.choice(n, size=max(1, count), replace=False)
    else:
        players = np.arange(n)
    plans = sample_day_plans(rng, players, workload.durations(),
                             workload.start_times())
    offsets = workload.start_offsets
    if offsets:
        # Timezone profiles (repro.scenarios): shift each player's
        # start by its region's offset, wrapping inside the day.  The
        # shift is applied after sampling, so the draw sequence — and
        # with it every no-scenario baseline — is untouched.
        hours = state.config.schedule.hours_per_day
        shift = np.asarray(offsets, dtype=np.int64)[
            state.nearest_dc[plans.player] % len(offsets)]
        plans = DayPlans(plans.player, np.where(
            shift == 0, plans.start, (plans.start - 1 + shift) % hours + 1),
            plans.hours)
    return plans


def choose_games(state: SimState, plans: DayPlans,
                 rng: np.random.Generator) -> None:
    """Write every participant's game today into ``state.game_code``.

    Participants choose in one random permutation by the §4.1 social
    rule; the k-th with no friend playing takes the k-th value of one
    uniform block, equal to the k-th scalar draw (DESIGN.md §8).
    """
    players = plans.player.tolist()
    order = rng.permutation(len(players))
    workload = state.config.workload
    if workload.game_weights is not None:
        # Scenario game mix: a weighted catalogue draw replaces the
        # social rule wholesale (an esports final is not organic play).
        code = np.full(state.topology.num_players, -1, dtype=np.int8)
        code[plans.player[order]] = weighted_codes(
            rng, dict(workload.game_weights), len(players))
    else:
        adjacency = state.population.friends.adjacency()
        fallbacks = iter(random_codes(rng, len(players)).tolist())
        chosen = [-1] * state.topology.num_players
        for index in order.tolist():
            player = players[index]
            chosen[player] = choose_game(player, adjacency, chosen,
                                         fallbacks)
        code = np.array(chosen, dtype=np.int8)
    cap = workload.quality_ceiling
    if cap is not None:
        # Bandwidth-constrained thin clients: nothing streams above
        # the ceiling level, whatever game the social rule picked
        # (catalogue index i is the level-(i + 1) game).
        np.minimum(code, cap - 1, out=code)
    state.game_code = code


# ----------------------------------------------------------------------
# the subcycle sweep: explicit staged pipeline
# ----------------------------------------------------------------------
@dataclass
class SweepContext:
    """Mutable per-day sweep state handed from stage to stage.

    One context lives for one :func:`sweep_day` call; the stages in
    :data:`SUBCYCLE_STAGES` mutate it in order at every subcycle.
    """

    day: int
    hours: int
    rng: np.random.Generator
    result: RunResult
    measuring: bool
    #: The day's load timelines (supernode rows, the cloud line and,
    #: under admission control, the cloud occupancy line).
    loads: SweepLoads
    #: Start subcycle → the plans joining then, in plan order.
    starts: dict[int, DayPlans]
    #: The day's sessions, one ``sessions.columns`` row per player.
    sessions: SessionTable
    fault_rng: np.random.Generator | None = None
    #: Admission-control policy (duck-typed AdmissionPolicy); None
    #: unless an active FaultPlan carries an admission policy.
    admission: object | None = None
    subcycle: int = 0


def _grouped_disconnect(state: SimState, players: np.ndarray,
                        sids: np.ndarray) -> None:
    """One ``disconnect_many`` per distinct supernode.

    Bit-identical to per-player ``disconnect`` calls: set discard is
    order-independent and the availability byte depends only on the
    final load, so grouping changes nothing observable.
    """
    disconnect_many = state.supernode_pool.disconnect_many
    for sid in np.unique(sids).tolist():
        disconnect_many(sid, players[sids == sid].tolist())


def stage_departures(state: SimState, ctx: SweepContext) -> None:
    """Disconnect every session whose play window ended this subcycle.

    Vectorised over :class:`~repro.core.columns.SessionColumns`: the
    mask ``active & end_subcycle == subcycle-1 & supernode_id >= 0``
    selects the fog sessions that just ended — a shed session has
    ``active == 0`` and a cloud/queued session ``supernode_id == -1``.
    """
    cols = ctx.sessions.columns
    ended = np.flatnonzero((cols.active == 1)
                           & (cols.end_subcycle == ctx.subcycle - 1)
                           & (cols.supernode_id >= 0))
    if ended.size:
        _grouped_disconnect(state, ended, cols.supernode_id[ended])


def stage_faults(state: SimState, ctx: SweepContext) -> None:
    """Fire scheduled faults (crash → migration, flaky, …).

    Runs between departures and arrivals: streaming sessions see the
    failure mid-day and walk the §3.2.2 recovery ladder, while this
    subcycle's new joiners already see the post-fault directory.
    """
    if ctx.fault_rng is not None:
        handlers.apply_faults(state, ctx.day, ctx.subcycle, ctx.sessions,
                              ctx.loads, ctx.fault_rng, ctx.result,
                              ctx.measuring, ctx.hours)


def _commit_cohort(state: SimState, ctx: SweepContext, players: list[int],
                   hours, joins) -> None:
    """Insert a cohort of joined sessions; log their load spans.

    ``players`` joined this subcycle with play times ``hours`` and
    outcomes ``joins``.  The table rows are written in one insert;
    their spans, read back from those rows and the game rate table, go
    to one :meth:`SweepLoads.commit` as arrays in plan order and reach
    the timelines when something next reads them.  A session is
    committed for the subcycles ``ctx.subcycle`` through its clamped
    end, inclusive.
    """
    subcycle = ctx.subcycle
    ends = np.minimum(ctx.hours, subcycle - 1 + np.ceil(hours).astype(
        np.int64))
    rows = ctx.sessions.add(players, subcycle, ends, joins)
    cols = ctx.sessions.columns
    sids = cols.supernode_id[rows]
    rates = STREAM_RATE_MBPS[state.game_code[rows]]
    fog = sids >= 0
    cloud = cols.kind[rows] == KIND_CLOUD
    cloud_rates = rates[cloud]
    if state.compression is not None:
        cloud_rates *= state.compression.effective_ratio
    ctx.loads.commit(subcycle, ctx.loads.row_of[sids[fog]], ends[fog],
                     rates[fog], ends[cloud], cloud_rates)
    if ctx.measuring:
        ctx.result.join_latencies_ms.extend(
            cols.join_latency_ms[rows[cols.joined[rows]]].tolist())


def stage_arrivals(state: SimState, ctx: SweepContext) -> None:
    """Join every plan starting this subcycle; commit its load span.

    Plans join one at a time — the §3.2.2 sequential capacity-ask,
    each join seeing the supernode slots the previous one took.  No
    join reads the sweep's load timelines, so the whole cohort commits
    afterwards in one :func:`_commit_cohort`, in plan order.  Under
    admission control (backpressure) the cohort is admitted in one
    pass first (:func:`~repro.core.lifecycle.admit_joins`): a shed join
    is refused before it becomes a session — never displaced, never
    scored — and only the admitted rows commit.
    """
    subcycle = ctx.subcycle
    plans = ctx.starts.pop(subcycle, None)
    if not plans:
        return
    players = plans.player.tolist()
    joins = [join(state, player, ctx.rng) for player in players]
    if ctx.admission is not None:
        admitted = admit_joins(state, joins, ctx.admission, subcycle,
                               ctx.loads.cloud_count)
        for player in plans.player[~admitted].tolist():
            ctx.result.faults.joins_shed += 1
            obs.get_registry().counter("repro_joins_shed_total").inc()
            obs.get_events().emit("join_shed", day=ctx.day,
                                  subcycle=subcycle, player=player)
        if not admitted.any():
            return  # an empty cohort has no rows to insert
        plans = plans.take(admitted)
        players = plans.player.tolist()
        joins = [joined for joined, admit in zip(joins, admitted) if admit]
    _commit_cohort(state, ctx, players, plans.hours, joins)


def stage_scenario(state: SimState, ctx: SweepContext) -> None:
    """Run the scenario-installed sweep hooks, in installation order.

    Sits between fault injection and arrivals so a scenario stage (a
    flash-crowd spike, say) can queue extra plans into ``ctx.starts``
    and have them join *this* subcycle, against the post-fault
    directory.  ``state.scenario_stages`` is empty by default, making
    this a no-op for every baseline run; scenario hooks draw only from
    their own dedicated RNG streams, so baselines stay bit-identical.
    """
    for hook in state.scenario_stages:
        hook(state, ctx)


#: The per-subcycle stage pipeline, in execution order.  Read
#: dynamically by :func:`sweep_day` (module attribute lookup every
#: call) so tests can monkeypatch it to assert ordering and handoff.
SUBCYCLE_STAGES = (stage_departures, stage_faults, stage_scenario,
                   stage_arrivals)


def start_cohorts(plans: DayPlans, hours: int) -> dict[int, DayPlans]:
    """Group plans by start subcycle, clamped to the day's last.

    One stable sort on the clamped start keeps every cohort in plan
    order, the order its players join in.
    """
    clamped = np.minimum(plans.start, hours)
    order = np.argsort(clamped, kind="stable")
    subcycles, firsts = np.unique(clamped[order], return_index=True)
    return {subcycle: plans.take(rows) for subcycle, rows in zip(
        subcycles.tolist(), np.split(order, firsts[1:]))}


def sweep_day(state: SimState, plans, rng, result, measuring, day=0):
    """Process joins/leaves hour by hour; build load timelines.

    When a :class:`~repro.faults.plan.FaultPlan` is configured,
    scheduled faults fire between the subcycle's leaves and joins —
    sessions already streaming experience the failure mid-day and walk
    the §3.2.2 recovery ladder, while the subcycle's new joiners
    already see the post-fault directory.  Fault handling draws only
    from a dedicated ``faults-{day}`` stream, so a faulted run stays
    pairable with its fault-free baseline.
    """
    hours = state.config.schedule.hours_per_day
    admission = (state.faults.plan.admission if state.faults.active
                 else None)
    ctx = SweepContext(
        day=day, hours=hours, rng=rng, result=result, measuring=measuring,
        loads=SweepLoads(state.live_supernodes, hours,
                         occupancy=admission is not None),
        starts=start_cohorts(plans, hours),
        sessions=SessionTable(state.topology.num_players),
        admission=admission)

    if state.faults.active:
        state.faults.start_day(day)
        if state.faults.has_events_on(day):
            ctx.fault_rng = state.rng_factory.stream(f"faults-{day}")

    for subcycle in range(1, hours + 1):
        ctx.subcycle = subcycle
        for stage in SUBCYCLE_STAGES:
            stage(state, ctx)
    if state.faults.active:
        # Shed whatever a still-open partition window left queued, so
        # the conservation invariant holds at every day boundary.
        handlers.finish_day(state, ctx)
    # Disconnect everything at day end (cycles do not wrap, §4.1).
    cols = ctx.sessions.columns
    live = np.flatnonzero((cols.active == 1) & (cols.supernode_id >= 0))
    if live.size:
        _grouped_disconnect(state, live, cols.supernode_id[live])
    return ctx.sessions, ctx.loads, ctx.loads.cloud_rate


# ----------------------------------------------------------------------
# server assignment
# ----------------------------------------------------------------------
def run_server_assignment(state: SimState, rng: np.random.Generator,
                          result: RunResult) -> None:
    if state.config.mode == "cdn":
        return
    players_by_dc: dict[int, list[int]] = {}
    for player, dc_index in enumerate(state.nearest_dc.tolist()):
        players_by_dc.setdefault(dc_index, []).append(player)
    state.server_latency_cache.clear()
    adjacency = state.population.friends.adjacency()
    total_wall = 0.0
    for dc_index, players in players_by_dc.items():
        datacenter = state.datacenters[dc_index]
        if state.config.strategies.social_assignment:
            assignment = assign_players_socially(
                datacenter, players, state.population.friends, rng)
        else:
            assignment = assign_players_randomly(datacenter, players, rng)
        total_wall += assignment.wall_time_s
        # Per-player expected server latency: share of its friends on
        # other servers times the cross-server round trip.  A friend
        # counts when it shares the datacenter, i.e. has a server here;
        # the counts are order-insensitive, so the adjacency tuples
        # stand in for the friend sets.
        server_at = {p: datacenter.server_of(p) for p in players}
        hop_ms = datacenter.hop_ms
        for player in players:
            server = server_at[player]
            local = crossing = 0
            for friend in adjacency[player]:
                if friend in server_at:
                    local += 1
                    if server_at[friend] != server:
                        crossing += 1
            state.server_latency_cache[player] = (
                2.0 * hop_ms * crossing / local if local else 0.0)
    result.assignment_wall_times_s.append(total_wall)


# ----------------------------------------------------------------------
# provisioning
# ----------------------------------------------------------------------
def run_provisioning(state: SimState, plans: DayPlans,
                     rng: np.random.Generator) -> None:
    """Observe per-window player counts; redeploy for the next window."""
    assert state.provisioner is not None
    hours = state.config.schedule.hours_per_day
    window = state.provisioner.window_hours
    # Per-window occupancy: a plan is online in subcycles start
    # through start + ceil(hours) - 1, so it overlaps [ws, we] iff
    # start <= we and that end >= ws.
    starts = plans.start
    ends = starts + np.ceil(plans.hours).astype(np.int64) - 1
    with obs.get_tracer().span("run_provisioning", windows=max(
            1, -(-hours // window))):
        for window_start in range(1, hours + 1, window):
            window_end = min(hours, window_start + window - 1)
            online = int(np.count_nonzero(
                (starts <= window_end) & (ends >= window_start)))
            state.provisioner.observe(online)
            if state.provisioner.ready:
                target = min(state.provisioner.target_supernodes(),
                             len(state.supernode_pool))
                chosen = state.provisioner.choose_deployment(
                    state.supernode_pool, target, rng)
                deploy(state, chosen)
                obs.get_registry().counter(
                    "repro_provisioning_redeploys_total").inc()


# ----------------------------------------------------------------------
# one day / full schedule
# ----------------------------------------------------------------------
def day_end_flush(state: SimState, day: int, records, loads,
                  cloud_rate, result: RunResult, fault_base) -> None:
    """Flush one finished day into the telemetry time series.

    ``fault_base`` is the run-wide fault accounting captured at day
    start (:func:`_fault_counts`): the flush records only this day's
    deltas.  A no-op (never called) while observability is disabled —
    the store computes MOS and percentiles, which a disabled run must
    not pay for.
    """
    faults = result.faults
    counts, recoveries = fault_base
    obs.get_timeseries().observe_day(
        day=day, records=records, region_of=state.nearest_dc,
        cloud_bandwidth_mbps=cloud_bandwidth(state, cloud_rate, loads),
        fault_deltas={name: getattr(faults, name) - counts[name]
                      for name in FAULT_COUNTS},
        recovery_ms=faults.time_to_recover_ms[recoveries:])


def _fault_counts(result: RunResult) -> tuple[dict[str, int], int]:
    faults = result.faults
    return ({name: getattr(faults, name) for name in FAULT_COUNTS},
            len(faults.time_to_recover_ms))


def run_day(state: SimState, day: int, result: RunResult,
            measuring: bool) -> None:
    config = state.config
    tracer = obs.get_tracer()
    registry = obs.get_registry()
    timeseries = obs.get_timeseries()
    fault_base = _fault_counts(result)
    day_span = tracer.span("run_day", day=day, measuring=measuring,
                           mode=config.mode)
    state.current_day = day
    with day_span:
        # (1) Throttle re-roll (its own stream: no workload shift).
        state.supernode_pool.roll_throttle(
            state.rng_factory.stream(f"throttle-{day}"),
            config.throttle_probability)

        # (Weekly) server assignment.
        if day % 7 == 0:
            with tracer.span("server_assignment", day=day):
                run_server_assignment(
                    state, state.rng_factory.stream(f"assignment-{day}"),
                    result)

        # (2) Day plans and social game choice (paired across systems).
        with tracer.span("day_plans", day=day):
            plans = sample_plans(
                state, state.rng_factory.stream(f"plans-{day}"), day=day)
            choose_games(state, plans,
                         state.rng_factory.stream(f"games-{day}"))

        # (3) Subcycle sweep.
        selection_rng = state.rng_factory.stream(f"selection-{day}")
        with tracer.span("sweep_day", day=day, plans=len(plans)):
            sessions, loads, cloud_rate = \
                sweep_day(state, plans, selection_rng, result, measuring,
                          day=day)

        # (4)+(5) Per-session QoS and ratings.
        qos_rng = state.rng_factory.stream(f"qos-{day}")
        records = score_sessions(state, day, sessions, loads,
                                 cloud_rate, qos_rng)
        kind = records.column("kind")
        with tracer.span("ratings", day=day):
            rated = kind == KIND_SUPERNODE
            if rated.any():  # a day without fog sessions rates nothing
                players = records.column("player")[rated].tolist()
                state.ledger.add_many(
                    players, records.column("target")[rated].tolist(),
                    records.column("continuity")[rated].tolist(), day)
                state.reputation.refresh(players, day)

        # (5b) Credit the contributors.
        credit_contributors(state, loads)

        # (6) Provisioning windows.
        if state.provisioner is not None:
            run_provisioning(
                state, plans, state.rng_factory.stream(f"provision-{day}"))

        for code, connection in KIND_OF_CODE.items():
            count = int(np.count_nonzero(kind == code))
            if count:
                registry.counter("repro_sessions_total",
                                 kind=connection.value).inc(count)
        if timeseries.enabled:
            day_end_flush(state, day, records, loads, cloud_rate,
                          result, fault_base)
        day_span.annotate(sessions=len(records))
        _log.debug("day done", extra=obs.kv(
            day=day, measuring=measuring, sessions=len(records)))

    if measuring and records:
        result.days.append(
            summarize_day(state, day, records, cloud_rate, loads))
        result.sessions.extend(records)


def run_schedule(state: SimState, days: int | None = None, *,
                 result: RunResult | None = None, start_day: int = 0,
                 on_day_end=None) -> RunResult:
    """Run the configured schedule and return measured-day results.

    Each day is one cycle of the paper's cycle-driven execution model
    (§4.1), traced as a ``cycle_day`` span; its subcycles run inside
    :func:`sweep_day`.  Short runs always measure at least the final
    day.

    The keyword-only parameters are the checkpoint/resume seam
    (:mod:`repro.persist`):

    * ``result`` — continue appending to an existing (restored)
      :class:`RunResult` instead of starting a fresh one; the
      construction-time supernode-join snapshot only happens for a
      fresh result.
    * ``start_day`` — first day to execute (resume skips the days the
      checkpoint already covered).  Warm-up/measurement windows depend
      only on the *total* day count, so a resumed run measures exactly
      the days the uninterrupted run would have.
    * ``on_day_end`` — called as ``on_day_end(state, day, result,
      total_days)`` after each completed day, inside its
      ``cycle_day`` span; the :class:`~repro.persist.Checkpointer`
      plugs in here.
    """
    schedule = state.config.schedule
    total_days = schedule.days if days is None else days
    if total_days <= 0:
        raise ValueError(f"days must be positive, got {total_days}")
    if start_day < 0:
        raise ValueError(f"start_day must be non-negative, got {start_day}")
    if result is None:
        result = RunResult()
        result.supernode_join_latencies_ms = list(
            state.supernode_join_latencies_ms)
    warmup = min(schedule.warmup_days, max(0, total_days - 1))
    tracer = obs.get_tracer()
    for day in range(start_day, total_days):
        with tracer.span("cycle_day", day=day):
            run_day(state, day, result, measuring=day >= warmup)
            if on_day_end is not None:
                on_day_end(state, day, result, total_days)
    return result
