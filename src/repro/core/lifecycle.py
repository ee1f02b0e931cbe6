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
from .entities import ConnectionKind
from .selection import GAME_L_MAX_MS, select_supernode
from .state import (JoinOutcome, SimState, cloud_one_way_ms,
                    player_supernode_ms)

__all__ = ["MigrationOutcome", "join", "join_cdn", "migrate",
           "ordered_orphans", "penalize_orphans",
           "take_offline", "bring_online", "admit_joins",
           "fog_availability"]


@dataclass(frozen=True)
class MigrationOutcome:
    """Result of one displaced player's walk down the reconnect ladder.

    ``via`` names the rung that ended the walk: ``"candidates"`` (the
    player's own list, no selection round), ``"selection"`` or
    ``"cloud"`` (graceful degradation to direct streaming,
    ``supernode_id`` None).  ``latency_ms`` excludes failure detection —
    the caller adds the detector's latency on top.
    """

    latency_ms: float
    supernode_id: int | None
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
    ``sweep_day`` span carries their aggregate wall clock.  With
    metrics off the null registry would record nothing, so the join
    skips the lookups.
    """
    outcome = _join_inner(state, player, rng)
    registry = obs.get_registry()
    if not registry.enabled:
        return outcome
    registry.counter("repro_joins_total", kind=outcome.kind.value).inc()
    if outcome.join_latency_ms is not None:
        registry.histogram("repro_join_latency_ms").observe(
            outcome.join_latency_ms)
    elif outcome.kind is ConnectionKind.SUPERNODE:
        registry.counter("repro_sticky_joins_total").inc()
    return outcome


def _join_inner(state: SimState, player: int,
                rng: np.random.Generator) -> JoinOutcome:
    config = state.config

    if config.mode == "cdn":
        return join_cdn(state, player)
    if (config.mode != "cloudfog" or state.directory is None
            or not state.live_supernodes):
        upstream = cloud_one_way_ms(state, player)
        return JoinOutcome(ConnectionKind.CLOUD, None, upstream, upstream,
                           None)

    upstream = cloud_one_way_ms(state, player)
    l_max = GAME_L_MAX_MS[state.game_code[player]]

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
        state.candidates.remember(player, outcome.qualified)
    if outcome.supernode_id is not None:
        state.sticky[player] = outcome.supernode_id
        return JoinOutcome(ConnectionKind.SUPERNODE, outcome.supernode_id,
                           outcome.downstream_one_way_ms, upstream,
                           outcome.join_latency_ms)
    return JoinOutcome(ConnectionKind.CLOUD, None, upstream, upstream,
                       outcome.join_latency_ms)


def join_cdn(state: SimState, player: int) -> JoinOutcome:
    """CDN baseline: the nearest edge site serves everything if it
    meets the game's delivery deadline; otherwise fall back to the
    cloud (the CDN's user-coverage limit)."""
    delays = state.topology.players_to_points_one_way_ms(
        np.array([player]), state.cdn_coords, state.cdn_access)[0]
    site = int(np.argmin(delays))
    site_delay = float(delays[site])
    l_max = GAME_L_MAX_MS[state.game_code[player]]
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

    Shared by every crash-like fault handler: the pool rows, the live
    list, candidate caches and the availability gauge all stay
    mutually consistent.
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


def admit_joins(state: SimState, joins: list[JoinOutcome], policy,
                subcycle: int, cloud_count: np.ndarray) -> np.ndarray:
    """Admission control: which of a subcycle's joins enter service?

    Applies only to cloud-direct sessions — a session that landed on a
    supernode consumes surviving fog capacity, which is the resource
    admission control protects.  Cloud joins are refused while a
    fog↔cloud partition is active (``policy.shed_during_partition``)
    or once the concurrent cloud-session cap is full at their start
    subcycle (``policy.max_cloud_sessions``): the sweep's
    ``cloud_count`` occupancy line plus the cloud joins admitted
    earlier in plan order.  ``policy`` is a
    :class:`~repro.faults.plan.AdmissionPolicy` duck-typed to keep
    the layering acyclic.
    """
    cloud = np.array([outcome.kind is ConnectionKind.CLOUD
                      for outcome in joins], dtype=bool)
    if policy.shed_during_partition and state.faults.partition_active(
            subcycle):
        return ~cloud
    if policy.max_cloud_sessions is None:
        return np.ones(len(joins), dtype=bool)
    room = policy.max_cloud_sessions - cloud_count[subcycle]
    return ~cloud | (np.cumsum(cloud) <= room)


def fog_availability(state: SimState) -> float:
    """Live share of the last deployment (1.0 = no node down)."""
    if not state.deployed_count:
        return 0.0
    return len(state.live_supernodes) / state.deployed_count


def migrate(state: SimState, player: int, l_max: float,
            rng: np.random.Generator,
            transient_refusal: float = 0.0) -> MigrationOutcome:
    """Walk a displaced player down the §3.2.2 reconnect ladder.

    The player first walks its own candidate list (probe + handshake,
    no cloud round trip).  Only if every remembered candidate is gone
    or full does it contact the cloud, for one §3.2 selection round.
    When neither lands on a supernode the player degrades to direct
    cloud streaming (``supernode_id`` None).

    ``transient_refusal`` models churn turbulence: the round's
    handshake times out with this probability, the slot is released
    and the player degrades to the cloud.
    """
    pool = state.supernode_pool
    for entry in state.candidates.candidates(player):
        sid = entry.supernode_id
        if pool.available[sid] and entry.delay_ms <= l_max:
            pool.connect(sid, player)
            state.sticky[player] = sid
            # Probe RTT + connect handshake, no cloud involvement.
            return MigrationOutcome(
                2.0 * entry.delay_ms + 10.0 + entry.delay_ms, sid,
                "candidates")
    reputation = (state.reputation
                  if state.config.strategies.reputation_selection
                  else None)
    outcome = select_supernode(
        player, state.directory, l_max, rng,
        reputation=reputation,
        candidate_count=state.config.candidate_count,
        cloud_rtt_ms=2.0 * cloud_one_way_ms(state, player))
    if outcome.qualified:
        state.candidates.remember(player, outcome.qualified)
    sid = outcome.supernode_id
    if sid is None:
        return MigrationOutcome(outcome.join_latency_ms, None, "cloud")
    if transient_refusal > 0.0 and rng.random() < transient_refusal:
        # Handshake timed out mid-churn: release the slot.
        pool.disconnect_many(sid, (player,))
        return MigrationOutcome(outcome.join_latency_ms, None, "cloud")
    state.sticky[player] = sid
    return MigrationOutcome(outcome.join_latency_ms, sid, "selection")
