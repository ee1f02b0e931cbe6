"""In-run fault handlers: what each scheduled fault *does* to a sweep.

The fault stage of the subcycle pipeline.  :func:`apply_faults` fires
every :class:`~repro.faults.plan.FaultEvent` scheduled for the current
(day, subcycle) against the live sweep: crashes walk displaced sessions
down the reconnect ladder (``core.lifecycle``), flakiness reuses the
§4.1 throttling channel, link degradation and update loss land as
latency/continuity penalties.

The correlated kinds reuse the same recovery walker
(:func:`_rehome_orphans`) with domain-sized target sets: ``dc_outage``
fails every supernode homed to a datacenter (and re-routes that
region's cloud sessions to the second-nearest datacenter),
``regional_outage`` fails everything inside a geographic blast radius,
``preempt`` drains announced reclaims gracefully, and ``partition``
severs the fog↔cloud fallback so displaced sessions queue until the
window closes — or are shed.  A plan's :class:`~repro.faults.plan.
HealingPolicy` schedules replacement capacity (rank-preference over
the idle pool) a few subcycles after each confirmed domain loss.

This module lives in ``repro.faults`` (the fault subsystem owns its
semantics) but ranks *above* the core stage modules in the layering:
it drives lifecycle/state mutations and is imported only by the
orchestrator (``core.sweep``).  ``repro.faults.__init__`` must NOT
import it — that would cycle through ``core.state``'s
``build_injector`` import.
"""

from __future__ import annotations

import numpy as np

from .. import obs
from ..core.columns import KIND_CLOUD
from ..core.entities import Supernode
from ..core.lifecycle import (bring_online, migrate, ordered_orphans,
                              penalize_orphans, take_offline)
from ..core.provisioning import choose_replacements
from ..core.selection import delay_threshold_ms
from ..core.state import SimState, player_supernode_ms
from ..obs.metrics import DEFAULT_RECOVERY_BUCKETS_MS
from .plan import FaultEvent

__all__ = ["apply_faults", "finish_day", "fault_targets", "inject_crash",
           "inject_flaky", "inject_link_degradation",
           "inject_update_loss", "inject_dc_outage",
           "inject_regional_outage", "inject_preempt", "inject_partition"]


def apply_faults(state: SimState, day, subcycle, sessions, loads,
                 cloud_rate, frng, result, measuring, hours) -> None:
    """Fire every fault scheduled for this (day, subcycle).

    Before the instant's events, two deferred-work steps run: the
    partition queue drains if the fog↔cloud window closed, and due
    self-healing re-provisioning brings replacement capacity online.
    Both are no-ops (no RNG draw, no float op) unless a correlated
    fault armed them earlier in the day, so legacy plans keep their
    exact digests.
    """
    registry = obs.get_registry()
    event_log = obs.get_events()
    injector = state.faults
    if injector.queued:
        _drain_partition_queue(state, day, subcycle, sessions, cloud_rate,
                               result)
    if injector.pending_heals:
        _execute_heals(state, day, subcycle, loads, frng)
    for event in injector.events_at(day, subcycle):
        result.faults.events_applied += 1
        registry.counter("repro_faults_injected_total",
                         kind=event.kind).inc()
        event_log.emit("fault_injected", day=day, subcycle=subcycle,
                       fault_kind=event.kind, count=event.count,
                       severity=event.severity,
                       supernode_id=event.supernode_id,
                       extra_ms=event.extra_ms)
        if event.kind == "crash":
            inject_crash(state, event, day, subcycle, sessions, loads,
                         cloud_rate, frng, result, measuring)
        elif event.kind == "flaky":
            inject_flaky(state, event, frng)
        elif event.kind == "degrade_link":
            inject_link_degradation(state, event, subcycle, sessions)
        elif event.kind == "lose_updates":
            inject_update_loss(state, event, subcycle, sessions, hours,
                               registry)
        elif event.kind == "dc_outage":
            inject_dc_outage(state, event, day, subcycle, sessions, loads,
                             cloud_rate, frng, result, measuring, hours)
        elif event.kind == "regional_outage":
            inject_regional_outage(state, event, day, subcycle, sessions,
                                   loads, cloud_rate, frng, result,
                                   measuring, hours)
        elif event.kind == "preempt":
            inject_preempt(state, event, day, subcycle, sessions, loads,
                           cloud_rate, frng, result, measuring, hours)
        elif event.kind == "partition":
            inject_partition(state, event, day, subcycle, hours)


def fault_targets(state: SimState, event: FaultEvent,
                  frng: np.random.Generator) -> list[Supernode]:
    """Resolve a fault event to live supernode targets (may be [])."""
    live = state.live_supernodes
    if not live:
        return []
    if event.supernode_id is not None:
        return [sn for sn in live
                if sn.supernode_id == event.supernode_id]
    count = min(event.count, len(live))
    picks = frng.choice(len(live), size=count, replace=False)
    return [live[int(i)] for i in picks]


def inject_crash(state: SimState, event, day, subcycle, sessions, loads,
                 cloud_rate, frng, result, measuring) -> None:
    """Crash supernodes mid-day and walk their sessions to recovery.

    Every displaced session is accounted exactly once per
    displacement: recovered onto another supernode, degraded to
    direct cloud streaming, shed when a fog↔cloud partition outlives
    it, or (when its bookkeeping is gone) dropped — the conservation
    invariant the chaos tests assert.  Load matrices move with the
    session: the crashed row keeps the already-served span and loses
    the remainder, which lands on the new row or the cloud's rate
    line.
    """
    targets = fault_targets(state, event, frng)
    if not targets:
        return
    orphan_sets = take_offline(state, targets)
    state.faults.failed_ids.update(sn.supernode_id
                                   for sn, _ in orphan_sets)
    _rehome_orphans(state, orphan_sets, day, subcycle, sessions, loads,
                    cloud_rate, frng, result, measuring)


def _rehome_orphans(state: SimState, orphan_sets, day, subcycle, sessions,
                    loads, cloud_rate, frng, result, measuring, *,
                    graceful: bool = False) -> None:
    """Walk every orphaned session down the §3.2.2 recovery ladder.

    Shared by every crash-like kind.  ``graceful`` marks a provider-
    announced preemption drain: detection is the cheap announced probe
    (no heartbeat silence) and no stall penalty is charged.  When a
    fog↔cloud partition is active, sessions that cannot re-home onto a
    supernode *queue* instead of degrading — the cloud fallback is the
    severed link — and resolve when the window closes
    (:func:`_drain_partition_queue`) or at day end (:func:`finish_day`).
    """
    registry = obs.get_registry()
    event_log = obs.get_events()
    detector = state.failure_detector
    injector = state.faults
    transient = injector.plan.transient_refusal_prob
    counts, rates = loads.counts, loads.rates
    summary = result.faults
    partitioned = injector.partition_active(subcycle)
    cols = sessions.columns
    ordered = ordered_orphans(orphan_sets)
    penalize_orphans(state, ordered, day)
    for sn, player in ordered:
        state.sticky.pop(player, None)
        summary.displaced += 1
        registry.counter("repro_fault_displaced_total").inc()
        if (not cols.active[player]
                or cols.supernode_id[player] != sn.supernode_id):
            # No live session bookkeeping to re-home (connected
            # out of band): account it as dropped, not lost.
            summary.dropped += 1
            registry.counter("repro_fault_dropped_total").inc()
            event_log.emit("session_dropped", day=day,
                           subcycle=subcycle, player=player,
                           supernode_id=sn.supernode_id)
            continue
        game = state.games[player]
        end = int(cols.end_subcycle[player])
        span = slice(subcycle, end + 1)
        row = loads.row(sn.supernode_id)
        if row is not None:
            counts[row, span] -= 1
            rates[row, span] -= game.stream_rate_mbps
        if graceful:
            detection = detector.announced_detection_ms
            summary.drained += 1
            registry.counter("repro_fault_drained_total").inc()
        else:
            detection = detector.detection_latency_ms(frng)
        event_log.emit("detector_trip", day=day, subcycle=subcycle,
                       player=player, supernode_id=sn.supernode_id,
                       detection_ms=detection)
        l_max = delay_threshold_ms(game.latency_requirement_ms)
        outcome = migrate(state, player, l_max, frng,
                          transient_refusal=transient)
        retries = max(0, outcome.attempts - 1)
        summary.retries += retries
        if retries:
            registry.counter("repro_fault_retries_total").inc(retries)
        ttr = detection + outcome.latency_ms
        queued = False
        if outcome.supernode_id is not None:
            new_row = loads.row(outcome.supernode_id)
            if new_row is not None:
                counts[new_row, span] += 1
                rates[new_row, span] += game.stream_rate_mbps
            new_sn = state.supernode_pool[outcome.supernode_id]
            cols.supernode_id[player] = outcome.supernode_id
            cols.latency_ms[player] = player_supernode_ms(state, player,
                                                          new_sn)
            summary.recovered += 1
            summary.time_to_recover_ms.append(ttr)
            if measuring:
                result.migration_latencies_ms.append(ttr)
            registry.counter("repro_fault_recovered_total").inc()
            registry.counter("repro_migrations_total").inc()
            registry.histogram("repro_migration_latency_ms").observe(
                ttr)
            registry.histogram(
                "repro_time_to_recover_ms",
                buckets=DEFAULT_RECOVERY_BUCKETS_MS).observe(ttr)
            event_log.emit("migration", day=day, subcycle=subcycle,
                           player=player,
                           from_supernode=sn.supernode_id,
                           to_supernode=outcome.supernode_id,
                           retries=retries, ttr_ms=ttr)
        elif partitioned:
            # The cloud fallback is the severed link: park the
            # session until the partition window closes.  Its
            # resolution (degraded or shed) is deferred.
            _to_cloud(cols, player)
            rate = game.stream_rate_mbps
            if state.compression is not None:
                rate = state.compression.compressed_mbps(rate)
            injector.queued.append((player, rate, end, subcycle))
            queued = True
            registry.counter("repro_fault_queued_total").inc()
            event_log.emit("session_queued", day=day,
                           subcycle=subcycle, player=player,
                           from_supernode=sn.supernode_id,
                           retries=retries)
        else:
            # Graceful degradation: the cloud streams directly
            # for the rest of the session.
            _to_cloud(cols, player)
            rate = game.stream_rate_mbps
            if state.compression is not None:
                rate = state.compression.compressed_mbps(rate)
            cloud_rate[span] += rate
            summary.degraded += 1
            registry.counter("repro_fault_degraded_total").inc()
            event_log.emit("cloud_fallback", day=day,
                           subcycle=subcycle, player=player,
                           from_supernode=sn.supernode_id,
                           retries=retries, ttr_ms=ttr)
        if queued or graceful:
            # Queue wait is charged at drain time; a graceful
            # drain had the warning window to hand over cleanly.
            continue
        # The stream stalled for detection + reconnect: charge
        # the gap against the session's remaining play time.
        remaining_ms = max(1.0,
                           (end - subcycle + 1) * 3_600_000.0)
        state.faults.add_penalty(player, ttr / remaining_ms)


def _to_cloud(cols, player: int) -> None:
    """Point ``player``'s session row at the cloud's direct stream."""
    cols.kind[player] = KIND_CLOUD
    cols.supernode_id[player] = -1
    cols.latency_ms[player] = cols.upstream_ms[player]


def _fail_domain(state: SimState, targets, event, day, subcycle, sessions,
                 loads, cloud_rate, frng, result, measuring, hours, *,
                 graceful: bool = False) -> None:
    """Fail a whole domain at once and schedule its self-healing."""
    if not targets:
        return
    injector = state.faults
    orphan_sets = take_offline(state, targets)
    injector.failed_ids.update(sn.supernode_id for sn, _ in orphan_sets)
    obs.get_registry().counter("repro_domain_outages_total",
                               kind=event.kind).inc()
    obs.get_events().emit("domain_outage", day=day, subcycle=subcycle,
                          fault_kind=event.kind, lost=len(targets),
                          datacenter=event.datacenter,
                          graceful=graceful)
    _rehome_orphans(state, orphan_sets, day, subcycle, sessions, loads,
                    cloud_rate, frng, result, measuring, graceful=graceful)
    healing = injector.plan.healing
    if healing is not None:
        due = subcycle + healing.delay_subcycles
        count = max(1, int(round(len(targets)
                                 * healing.replacement_share)))
        if due <= hours:
            injector.pending_heals.append((due, count))


def inject_dc_outage(state: SimState, event, day, subcycle, sessions,
                     loads, cloud_rate, frng, result, measuring,
                     hours) -> None:
    """A datacenter goes dark: its whole fog domain fails together.

    Every live supernode *homed* to the datacenter (its host player's
    nearest datacenter is the dead one) fails at once — no sampling,
    the domain is the target set.  Cloud-direct sessions of players
    homed there keep streaming but re-route to their second-nearest
    datacenter, paying the extra path latency for the rest of the
    session (skipped in single-datacenter topologies, where there is
    nowhere to re-route to).
    """
    dc = event.datacenter
    nearest = state.nearest_dc
    targets = [sn for sn in state.live_supernodes
               if int(nearest[sn.host_player]) == dc]
    _fail_domain(state, targets, event, day, subcycle, sessions, loads,
                 cloud_rate, frng, result, measuring, hours)
    if state.config.num_datacenters < 2:
        return
    topology = state.topology
    latency_model = topology.latency_model
    all_ms = latency_model.one_way_ms(
        topology.player_datacenter_distances(),
        topology.player_access_ms[:, None],
        latency_model.datacenter_access_ms)
    all_ms[:, dc] = np.inf
    fallback_ms = np.min(all_ms, axis=1)
    cols = sessions.columns
    # Active cloud sessions homed to the dead datacenter whose window
    # covers this subcycle and whose fallback path is longer; each
    # element's ``+=`` is the scalar float64 addition, per session.
    live = np.flatnonzero(
        (cols.active == 1) & (cols.kind == KIND_CLOUD) & (nearest == dc)
        & (cols.start_subcycle <= subcycle)
        & (cols.end_subcycle >= subcycle))
    delta = fallback_ms[live] - cols.upstream_ms[live]
    longer = delta > 0.0
    players, delta = live[longer], delta[longer]
    cols.upstream_ms[players] += delta
    cols.latency_ms[players] += delta
    rerouted = int(players.size)
    if rerouted:
        obs.get_registry().counter(
            "repro_cloud_sessions_rerouted_total").inc(rerouted)
        obs.get_events().emit("cloud_rerouted", day=day,
                              subcycle=subcycle, datacenter=dc,
                              sessions=rerouted)


def inject_regional_outage(state: SimState, event, day, subcycle,
                           sessions, loads, cloud_rate, frng, result,
                           measuring, hours) -> None:
    """A regional ISP melt: everything inside the blast radius fails.

    The center is the event's explicit coordinates or the named
    datacenter's location; every live supernode within ``radius_km``
    fails together.  Deterministic — the domain is geometry, not a
    draw.
    """
    if event.center_x_km is not None and event.center_y_km is not None:
        cx, cy = event.center_x_km, event.center_y_km
    else:
        coords = state.topology.datacenter_coords[event.datacenter]
        cx, cy = float(coords[0]), float(coords[1])
    radius_sq = event.radius_km * event.radius_km
    targets = [sn for sn in state.live_supernodes
               if (sn.x_km - cx) ** 2 + (sn.y_km - cy) ** 2 <= radius_sq]
    _fail_domain(state, targets, event, day, subcycle, sessions, loads,
                 cloud_rate, frng, result, measuring, hours)


def inject_preempt(state: SimState, event, day, subcycle, sessions,
                   loads, cloud_rate, frng, result, measuring,
                   hours) -> None:
    """Spot-style mass preemption of ``count`` supernodes.

    With a warning window (``warning_subcycles > 0``) the provider
    announced the reclaim, so sessions drain gracefully: detection is
    the cheap announced probe, no stall penalty is charged, and each
    drained displacement is counted in ``FaultSummary.drained``.
    """
    targets = fault_targets(state, event, frng)
    _fail_domain(state, targets, event, day, subcycle, sessions, loads,
                 cloud_rate, frng, result, measuring, hours,
                 graceful=event.warning_subcycles > 0)


def inject_partition(state: SimState, event, day, subcycle,
                     hours) -> None:
    """Sever the fog↔cloud link for ``duration_subcycles``.

    While the window is open, displaced sessions that cannot re-home
    onto a supernode queue instead of degrading to cloud (the fallback
    path is the severed link), and admission control — when the plan
    carries an :class:`~repro.faults.plan.AdmissionPolicy` — sheds new
    cloud joins.  The queue drains when the window closes
    (:func:`_drain_partition_queue`) or sheds at day end
    (:func:`finish_day`).
    """
    window = (subcycle,
              min(hours, subcycle + event.duration_subcycles - 1))
    state.faults.partition_window = window
    obs.get_events().emit("fog_cloud_partition", day=day,
                          subcycle=subcycle, until_subcycle=window[1])


def _drain_partition_queue(state: SimState, day, subcycle, sessions,
                           cloud_rate, result) -> None:
    """Resolve queued sessions once the partition window has closed.

    Sessions whose play window is still open degrade to cloud from
    this subcycle on, paying a continuity penalty for the stalled
    wait; sessions the window outlived are shed — removed from
    service and never scored.
    """
    injector = state.faults
    if injector.partition_active(subcycle):
        return
    registry = obs.get_registry()
    event_log = obs.get_events()
    summary = result.faults
    for player, rate, end, queued_at in injector.queued:
        if player in sessions and end >= subcycle:
            cloud_rate[subcycle:end + 1] += rate
            summary.degraded += 1
            registry.counter("repro_fault_degraded_total").inc()
            stalled = subcycle - queued_at
            span_len = max(1, end - queued_at + 1)
            state.faults.add_penalty(player, stalled / span_len)
            event_log.emit("cloud_fallback", day=day, subcycle=subcycle,
                           player=player, from_supernode=None,
                           retries=0, ttr_ms=None)
        else:
            sessions.discard(player)
            summary.shed += 1
            registry.counter("repro_fault_shed_total").inc()
            event_log.emit("session_shed", day=day, subcycle=subcycle,
                           player=player)
    injector.queued.clear()


def _execute_heals(state: SimState, day, subcycle, loads, frng) -> None:
    """Bring due replacement capacity online (self-healing hook).

    Replacements come from the idle (offline, never-failed-today)
    pool by rank preference (Eq. 16) — player-dense areas heal first —
    and get fresh zero rows in the day's load matrices.
    """
    injector = state.faults
    due = [entry for entry in injector.pending_heals
           if entry[0] <= subcycle]
    if not due:
        return
    injector.pending_heals = [entry for entry in injector.pending_heals
                              if entry[0] > subcycle]
    registry = obs.get_registry()
    event_log = obs.get_events()
    for _, count in due:
        replacements = choose_replacements(
            state.supernode_pool, injector.failed_ids, count, frng)
        if not replacements:
            event_log.emit("heal_exhausted", day=day, subcycle=subcycle,
                           requested=count)
            continue
        bring_online(state, replacements)
        for sn in replacements:
            loads.ensure_row(sn.supernode_id)
        registry.counter("repro_capacity_healed_total").inc(
            len(replacements))
        event_log.emit("capacity_healed", day=day, subcycle=subcycle,
                       requested=count, healed=len(replacements),
                       supernode_ids=[sn.supernode_id
                                      for sn in replacements])


def finish_day(state: SimState, ctx) -> None:
    """Day-end fault flush: shed whatever is still queued.

    Called by ``sweep_day`` after the last subcycle when a fault plan
    is active.  A partition window reaching the end of the day never
    drained — those sessions are shed, keeping the conservation
    invariant exact at every day boundary.
    """
    injector = state.faults
    if not injector.queued:
        return
    registry = obs.get_registry()
    event_log = obs.get_events()
    summary = ctx.result.faults
    for player, _rate, _end, _queued_at in injector.queued:
        ctx.sessions.discard(player)
        summary.shed += 1
        registry.counter("repro_fault_shed_total").inc()
        event_log.emit("session_shed", day=ctx.day, subcycle=ctx.hours,
                       player=player)
    injector.queued.clear()


def inject_flaky(state: SimState, event: FaultEvent,
                 frng: np.random.Generator) -> None:
    """Throttle supernodes to ``severity`` of capacity (rest of day).

    Reuses the §4.1 throttling channel: utilization, congestion,
    continuity, ratings and reputation all see the degradation
    through the machinery that already models misbehaving
    supernodes.  The next day's throttle re-roll clears it.
    """
    for sn in fault_targets(state, event, frng):
        sn.throttle = min(sn.throttle, max(0.05, event.severity))


def inject_link_degradation(state: SimState, event: FaultEvent, subcycle,
                            sessions) -> None:
    """Add ``extra_ms`` one-way delay to active streams.

    Targets the event's supernode when set, otherwise every active
    session (a transit-level event).  The added delay persists for
    the rest of the session — scoring reads the session's final
    downstream delay — matching a route change that does not heal.
    """
    if event.extra_ms <= 0.0:
        return
    cols = sessions.columns
    mask = ((cols.active == 1) & (cols.start_subcycle <= subcycle)
            & (cols.end_subcycle >= subcycle))
    if event.supernode_id is not None:
        mask &= cols.supernode_id == event.supernode_id
    cols.latency_ms[mask] += event.extra_ms


def inject_update_loss(state: SimState, event: FaultEvent, subcycle,
                       sessions, hours, registry) -> None:
    """Drop a share of update messages for ``duration_subcycles``.

    Supernode-served sessions lose ``severity`` of their frames
    while the window overlaps their play time; the loss lands as a
    continuity penalty proportional to the overlapping share of the
    session.  Cloud-direct sessions are unaffected (no update-relay
    hop).  Sessions joining after the event has fired see the
    post-event world and are not penalised.
    """
    window_end = min(hours, subcycle + event.duration_subcycles - 1)
    cols = sessions.columns
    start = cols.start_subcycle
    end = cols.end_subcycle
    overlap = (np.minimum(end, window_end)
               - np.maximum(start, subcycle) + 1)
    mask = ((cols.active == 1) & (cols.supernode_id >= 0) & (overlap > 0))
    players = np.flatnonzero(mask)
    # severity * overlap / span_len, evaluated left to right, then back
    # to Python floats before the penalty map: no numpy scalars past
    # this point.
    penalties = (event.severity * overlap[players]
                 / (end[players] - start[players] + 1))
    add_penalty = state.faults.add_penalty
    for player, penalty in zip(players.tolist(), penalties.tolist()):
        add_penalty(player, penalty)
    registry.counter(
        "repro_update_loss_affected_sessions_total").inc(int(players.size))
