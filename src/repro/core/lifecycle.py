"""Session lifecycle: joins, sticky reuse, migration, node removal.

The join/migration stage of the pipeline.  Every function is a
module-level unit operating on a :class:`~repro.core.state.SimState`:
connecting a starting session to its video source (§3.2 selection with
sticky reuse), walking a displaced player down the §3.2.2 reconnect
ladder, and taking failed supernodes out of service consistently.

Layering: imports ``core.state`` and foundation modules only — never
the scorer, the orchestrator, the façade, or ``experiments``
(``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..obs.metrics import DEFAULT_RECOVERY_BUCKETS_MS
from ..workload.games import Game, random_game
from .entities import ConnectionKind
from .selection import delay_threshold_ms, select_supernode
from .state import (JoinOutcome, SimState, cloud_one_way_ms,
                    player_supernode_ms)

__all__ = ["MigrationOutcome", "join", "join_cdn", "migrate",
           "ordered_orphans", "penalize_orphans",
           "take_offline", "bring_online", "admit_join",
           "fog_availability", "fail_supernodes"]

_log = obs.get_logger(__name__)


@dataclass(frozen=True)
class MigrationOutcome:
    """Result of one displaced player's walk down the reconnect ladder.

    ``attempts`` counts the §3.2 selection rounds consumed (0 when the
    player's own candidate list served the reconnect); ``via`` names the
    rung that ended the walk: ``"candidates"``, ``"selection"`` or
    ``"cloud"`` (graceful degradation to direct streaming,
    ``supernode_id`` None).  ``latency_ms`` excludes failure detection —
    the caller adds the detector's latency on top.
    """

    latency_ms: float
    supernode_id: int | None
    attempts: int
    via: str


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def join(state: SimState, player: int,
         rng: np.random.Generator) -> JoinOutcome:
    """Connect ``player``'s starting session to its video source.

    Joins happen thousands of times per simulated day, so they are
    counted (by connection kind, sticky reuse, join latency
    histogram) rather than individually spanned — the enclosing
    ``sweep_day`` span carries their aggregate wall clock.
    """
    outcome = _join_inner(state, player, rng)
    registry = obs.get_registry()
    registry.counter("repro_joins_total", kind=outcome.kind.value).inc()
    if outcome.join_latency_ms is not None:
        registry.histogram("repro_join_latency_ms").observe(
            outcome.join_latency_ms)
    elif outcome.kind is ConnectionKind.SUPERNODE:
        registry.counter("repro_sticky_joins_total").inc()
    return outcome


def _join_inner(state: SimState, player: int,
                rng: np.random.Generator) -> JoinOutcome:
    game = state.games[player]
    config = state.config

    if config.mode == "cdn":
        return join_cdn(state, player, game)
    if (config.mode != "cloudfog" or state.directory is None
            or not state.live_supernodes):
        upstream = cloud_one_way_ms(state, player)
        return JoinOutcome(ConnectionKind.CLOUD, None, upstream, upstream,
                           None)

    upstream = cloud_one_way_ms(state, player)
    l_max = delay_threshold_ms(game.latency_requirement_ms)

    # Sticky connection: reuse yesterday's supernode when still valid.
    # With reputation-based selection enabled, players re-select every
    # session using their scores instead (§3.2.2) — otherwise a player
    # would stay glued to a misbehaving supernode forever.
    sticky_id = (None if config.strategies.reputation_selection
                 else state.sticky.get(player))
    if sticky_id is not None:
        pool = state.supernode_pool
        if pool.available[sticky_id]:
            delay = player_supernode_ms(state, player, sticky_id)
            if delay <= l_max:
                pool.connect(sticky_id, player)
                return JoinOutcome(ConnectionKind.SUPERNODE, sticky_id,
                                   delay, upstream, None)

    reputation = (state.reputation
                  if config.strategies.reputation_selection else None)
    outcome = select_supernode(
        player, state.directory, l_max, rng, reputation=reputation,
        candidate_count=config.candidate_count,
        cloud_rtt_ms=2.0 * upstream)
    if outcome.qualified:
        state.candidates.remember(player, list(outcome.qualified))
    if outcome.supernode_id is not None:
        state.sticky[player] = outcome.supernode_id
        return JoinOutcome(ConnectionKind.SUPERNODE, outcome.supernode_id,
                           outcome.downstream_one_way_ms, upstream,
                           outcome.join_latency_ms)
    return JoinOutcome(ConnectionKind.CLOUD, None, upstream, upstream,
                       outcome.join_latency_ms)


def join_cdn(state: SimState, player: int, game: Game) -> JoinOutcome:
    """CDN baseline: the nearest edge site serves everything if it
    meets the game's delivery deadline; otherwise fall back to the
    cloud (the CDN's user-coverage limit)."""
    delays = state.topology.players_to_points_one_way_ms(
        np.array([player]), state.cdn_coords, state.cdn_access)[0]
    site = int(np.argmin(delays))
    site_delay = float(delays[site])
    l_max = delay_threshold_ms(game.latency_requirement_ms)
    if 2.0 * site_delay <= l_max:
        return JoinOutcome(ConnectionKind.CDN, None, site_delay,
                           site_delay, None)
    upstream = cloud_one_way_ms(state, player)
    return JoinOutcome(ConnectionKind.CLOUD, None, upstream, upstream, None)


# ----------------------------------------------------------------------
# failures / migration
# ----------------------------------------------------------------------
def ordered_orphans(orphan_sets: list[tuple[int, set[int]]]
                    ) -> list[tuple[int, int]]:
    """One deterministic re-home ordering for a whole fault event.

    Flattens :func:`take_offline`'s per-supernode orphan sets into a
    single concatenated ``(supernode id, player)`` sequence: each set
    sorted once through numpy, sets kept in their failure order.  The
    iteration order is exactly the nested ``for sn, orphans …: for
    player in sorted(orphans)`` loop it replaces, so the existing
    golden digests pin it bit-identically.  ``tolist()`` hands back
    Python ints — dict keys and JSON event payloads never see numpy
    scalars.
    """
    ordered: list[tuple[int, int]] = []
    for sid, orphans in orphan_sets:
        if not orphans:
            continue
        players = np.sort(np.fromiter(
            orphans, dtype=np.int64, count=len(orphans))).tolist()
        ordered.extend((sid, player) for player in players)
    return ordered


def penalize_orphans(state: SimState,
                     ordered: list[tuple[int, int]],
                     today: int) -> None:
    """Charge every orphan of one fault event its failure rating at once.

    Runs before the event's first migration, in place of a penalty
    just before each orphan's own migration.  The two are equal: a
    migration reads only its own player's scores, a player's scores
    depend only on its own ratings, and the orphans of one event are
    distinct players (asserted here) whose ratings enter the log in
    the same order.
    """
    players = [player for _, player in ordered]
    assert len(set(players)) == len(players), \
        "one fault event orphaned a player twice"
    state.reputation.penalize_many(
        players, [sid for sid, _ in ordered], today)


def take_offline(state: SimState, failed: list[int]
                 ) -> list[tuple[int, set[int]]]:
    """Remove supernodes from service; return their orphaned players.

    Shared by the out-of-band :func:`fail_supernodes` entry point
    and in-run crash injection: the pool rows, the live list,
    candidate caches and the availability gauge all stay mutually
    consistent.
    """
    failed_ids = set(failed)
    fail = state.supernode_pool.fail
    orphan_sets = [(sid, fail(sid)) for sid in failed]
    state.live_supernodes = [sid for sid in state.live_supernodes
                             if sid not in failed_ids]
    state.candidates.forget_supernodes(failed_ids)
    registry = obs.get_registry()
    registry.counter("repro_supernode_failures_total").inc(len(failed))
    registry.gauge("repro_live_supernodes").set(
        len(state.live_supernodes))
    registry.gauge("repro_fog_availability_ratio").set(
        fog_availability(state))
    return orphan_sets


def bring_online(state: SimState, supernode_ids: list[int]) -> None:
    """Bring replacement supernodes into service (self-healing).

    The inverse of :func:`take_offline`, used by the healing hook
    after a confirmed domain loss: each node goes online at the end of
    the live list.  ``deployed_count`` grows so the availability gauge
    never reads above 1.0 after a heal.  Already-online nodes are
    skipped.
    """
    pool = state.supernode_pool
    fresh = [sid for sid in supernode_ids if not pool.online[sid]]
    if not fresh:
        return
    pool.set_online(fresh, True)
    state.live_supernodes.extend(fresh)
    state.deployed_count = max(state.deployed_count,
                               len(state.live_supernodes))
    registry = obs.get_registry()
    registry.counter("repro_supernode_heals_total").inc(len(fresh))
    registry.gauge("repro_live_supernodes").set(
        len(state.live_supernodes))
    registry.gauge("repro_fog_availability_ratio").set(
        fog_availability(state))


def admit_join(state: SimState, outcome: JoinOutcome, policy,
               subcycle: int, cloud_count: np.ndarray | None) -> bool:
    """Admission control: may this just-joined session enter service?

    Applies only to cloud-direct sessions — a session that landed on a
    supernode consumes surviving fog capacity, which is the resource
    admission control protects.  A cloud join is refused while a
    fog↔cloud partition is active (``policy.shed_during_partition``)
    or when the concurrent cloud-session cap is already full at its
    start subcycle (``policy.max_cloud_sessions``, tracked by the
    sweep's ``cloud_count`` occupancy line).  ``policy`` is a
    :class:`~repro.faults.plan.AdmissionPolicy` duck-typed to keep
    the layering acyclic.
    """
    if outcome.kind is not ConnectionKind.CLOUD:
        return True
    if policy.shed_during_partition and state.faults.partition_active(
            subcycle):
        return False
    if (policy.max_cloud_sessions is not None
            and cloud_count is not None
            and cloud_count[subcycle] >= policy.max_cloud_sessions):
        return False
    return True


def fog_availability(state: SimState) -> float:
    """Live share of the last deployment (1.0 = no node down)."""
    if not state.deployed_count:
        return 0.0
    return len(state.live_supernodes) / state.deployed_count


def fail_supernodes(state: SimState, count: int, rng: np.random.Generator,
                    day: int | None = None) -> list[float]:
    """Fail ``count`` random live supernodes; reconnect their players.

    Out-of-band fault entry point (tests and ad-hoc churn probes; a
    :class:`~repro.faults.plan.FaultPlan` injects mid-sweep instead).
    Returns the end-to-end migration latency — failure detection
    plus the reconnect ladder — of every player that re-attached to
    a supernode.  Players with no qualified candidate are *not*
    silently folded into that list: they degrade to direct cloud
    streaming conceptually, but with no live session to re-home
    here they are recorded as dropped and their sticky/game state
    cleared.  All accounting lands in ``state.fault_outcomes``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if not state.live_supernodes:
        return []
    count = min(count, len(state.live_supernodes))
    picks = rng.choice(len(state.live_supernodes), size=count,
                       replace=False)
    failed = [state.live_supernodes[int(i)] for i in picks]
    orphan_sets = take_offline(state, failed)
    registry = obs.get_registry()
    latencies: list[float] = []
    summary = state.fault_outcomes
    today = state.current_day if day is None else day
    transient = (state.faults.plan.transient_refusal_prob
                 if state.faults.active else 0.0)
    # Out-of-band callers have no notion of heartbeat phase, so the
    # detector contributes its expectation (500 ms at defaults).
    detection = state.failure_detector.detection_latency_ms()
    ordered = ordered_orphans(orphan_sets)
    penalize_orphans(state, ordered, today)
    for _sid, player in ordered:
        state.sticky.pop(player, None)
        game = state.games.get(player) or random_game(rng)
        l_max = delay_threshold_ms(game.latency_requirement_ms)
        summary.displaced += 1
        registry.counter("repro_migrations_total").inc()
        outcome = migrate(state, player, l_max, rng,
                          transient_refusal=transient)
        retries = max(0, outcome.attempts - 1)
        summary.retries += retries
        if retries:
            registry.counter("repro_fault_retries_total").inc(retries)
        if outcome.supernode_id is not None:
            latency = detection + outcome.latency_ms
            latencies.append(latency)
            summary.recovered += 1
            summary.time_to_recover_ms.append(latency)
            registry.histogram("repro_migration_latency_ms").observe(
                latency)
            registry.histogram(
                "repro_time_to_recover_ms",
                buckets=DEFAULT_RECOVERY_BUCKETS_MS).observe(latency)
        else:
            summary.dropped += 1
            state.games.pop(player, None)
            registry.counter("repro_fault_dropped_total").inc()
    _log.info("supernode failures handled", extra=obs.kv(
        failed=len(failed), displaced=summary.displaced,
        migrated=len(latencies)))
    return latencies


def migrate(state: SimState, player: int, l_max: float,
            rng: np.random.Generator,
            transient_refusal: float = 0.0) -> MigrationOutcome:
    """Walk a displaced player down the reconnect ladder.

    §3.2.2: the player first walks its own candidate list (probe +
    handshake, no cloud round trip).  Only if every remembered
    candidate is gone or full does it ask the cloud again — with
    bounded, jittered exponential backoff between rounds and the
    nodes that already refused excluded from re-selection.  When no
    rung lands on a supernode the player degrades to direct cloud
    streaming (``supernode_id`` None).

    ``transient_refusal`` models churn turbulence: each selection
    round's handshake independently times out with this probability
    (never on the final attempt's success), forcing a backoff retry.
    """
    pool = state.supernode_pool
    for entry in state.candidates.candidates(player):
        sid = entry.supernode_id
        if pool.available[sid] and entry.delay_ms <= l_max:
            pool.connect(sid, player)
            state.sticky[player] = sid
            # Probe RTT + connect handshake, no cloud involvement.
            return MigrationOutcome(
                2.0 * entry.delay_ms + 10.0 + entry.delay_ms, sid, 0,
                "candidates")
    upstream = cloud_one_way_ms(state, player)
    reputation = (state.reputation
                  if state.config.strategies.reputation_selection
                  else None)
    policy = state.retry_policy
    latency = 0.0
    refused: set[int] = set()
    attempts = 0
    for attempt in range(policy.max_attempts):
        if attempt:
            latency += policy.backoff_ms(attempt - 1, rng)
        attempts = attempt + 1
        outcome = select_supernode(
            player, state.directory, l_max, rng,
            reputation=reputation,
            candidate_count=state.config.candidate_count,
            cloud_rtt_ms=2.0 * upstream,
            exclude=refused if refused else None)
        latency += outcome.join_latency_ms
        if outcome.qualified:
            state.candidates.remember(player, list(outcome.qualified))
        sid = outcome.supernode_id
        if sid is not None:
            if (transient_refusal > 0.0
                    and attempt < policy.max_attempts - 1
                    and rng.random() < transient_refusal):
                # Handshake timed out mid-churn: release the slot,
                # remember the refusal, back off and retry.
                pool.disconnect_many(sid, (player,))
                refused.add(sid)
                continue
            state.sticky[player] = sid
            return MigrationOutcome(latency, sid, attempts, "selection")
        if not outcome.qualified:
            # Nothing clears the delay filter; a retry would re-ask
            # an unchanged table.  Degrade to the cloud.
            break
    return MigrationOutcome(latency, None, attempts, "cloud")
