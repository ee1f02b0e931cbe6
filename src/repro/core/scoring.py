"""Session scoring: per-day QoS evaluation of every live session.

The scoring stage of the pipeline.  The batch scorer
(:func:`score_sessions_batch`) reads the day's
:class:`~repro.core.state.SessionTable` columns in one vectorised
gather.  The tests pin it bit-identical to a frozen scalar oracle that
reads the same rows one session at a time
(``tests/core/scoring_oracle.py``); fault penalties fold in *after*
scoring so the RNG consumption of the scoring path never shifts
(:func:`apply_fault_penalties`).

Layering: imports ``core.state`` / ``core.accounting``, the leaf
``core`` modules and foundation modules only — never the orchestrator,
the façade, or ``experiments`` (``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import obs
from ..network.latency import PLAYOUT_PROCESSING_MS
from ..streaming.continuity import SATISFIED_CONTINUITY_THRESHOLD
from ..streaming.session import estimate_continuity_batch
from ..workload.games import LATENCY_REQUIREMENT_MS, STREAM_RATE_MBPS
from .accounting import (
    CLOUD_FLOW_HEADROOM,
    CLOUD_FLOW_SHARE_FLOOR_MBPS,
    SESSION_COLUMNS,
    SessionLog,
    cloud_egress_budget,
)
from .columns import KIND_CDN
from .state import SessionTable, SimState

__all__ = ["CDN_COORDINATION_MS", "QOS_SAMPLES", "QOS_DURATION_S",
           "score_sessions", "apply_fault_penalties",
           "SessionParams", "window_means", "gather_session_params",
           "score_sessions_batch"]

#: Coordination penalty when CDN sites cooperate on game state (§4.2:
#: "the servers need to cooperate with each other to compute new game
#: status").  Unlike intra-datacenter server hops this crosses the WAN
#: between edge sites, which is what keeps CDN's latency improvement
#: modest in the paper.
CDN_COORDINATION_MS = 35.0

#: Per-packet sample count of the fast session estimate.
QOS_SAMPLES = 64
#: Modelled session length (seconds) fed to the estimate.
QOS_DURATION_S = 60.0


def score_sessions(state: SimState, day, sessions, loads, cloud_rate,
                   rng) -> SessionLog:
    with obs.get_tracer().span("score_sessions", day=day,
                               sessions=len(sessions)):
        records = score_sessions_batch(state, day, sessions, loads,
                                       cloud_rate, rng)
        if state.faults.active and state.faults.penalties:
            records = apply_fault_penalties(state, records)
        return records


def apply_fault_penalties(state: SimState,
                          records: SessionLog) -> SessionLog:
    """Fold the day's fault penalties into the scored day log.

    Penalties accumulate per player during the sweep (stream
    interruption while recovering, lost update messages) as a
    continuity fraction lost; they apply *after* scoring so the
    batch scorer stays bit-identical to the scalar oracle and the
    RNG consumption of the scoring path never shifts.  A penalised
    session keeps ``max(0, c * (1 - f))`` of its continuity — the same
    bits elementwise as the scalar expression — and is re-judged
    against the satisfied threshold; every other row is untouched.
    """
    penalties = state.faults.penalties
    columns = {name: records.column(name) for name in SESSION_COLUMNS}
    fraction = np.array([penalties.get(player) or 0.0
                         for player in columns["player"].tolist()],
                        dtype=np.float64)
    hit = fraction != 0.0
    if not hit.any():
        return records
    continuity = columns["continuity"]
    penalised = np.maximum(0.0, continuity * (1.0 - fraction))
    columns["continuity"] = np.where(hit, penalised, continuity)
    columns["satisfied"] = np.where(
        hit, penalised >= SATISFIED_CONTINUITY_THRESHOLD,
        columns["satisfied"])
    return SessionLog.of(**columns)


class SessionParams(NamedTuple):
    """One day's scoring inputs, one entry per session in table order."""

    players: list[int]
    #: Each session's catalogue game index (``SimState.game_code``).
    games: np.ndarray
    targets: list[int]
    server_ms: list[float]
    upstream_ms: np.ndarray
    budget_ms: np.ndarray
    path_ms: np.ndarray
    sender_mbps: np.ndarray
    receiver_mbps: np.ndarray
    processing_ms: np.ndarray
    utilization: np.ndarray


def window_means(matrix: np.ndarray, rows: np.ndarray, starts: np.ndarray,
                 lengths: np.ndarray) -> np.ndarray:
    """``matrix[rows[i], starts[i]:starts[i] + lengths[i]].mean()`` for
    every ``i``, bit for bit.

    The windows of one length gather into a C-contiguous ``(k, L)``
    block.  Its row-wise ``np.add.reduce`` sums each row with numpy's
    pairwise summation, exactly as ``slice.mean()`` sums its slice, and
    one division by ``L`` follows, as in ``mean``.  A prefix-sum
    difference would round differently.  The distinct lengths come from
    ``np.bincount``: ``np.unique`` allocates a large one-off cache on
    its first call in a process.
    """
    means = np.empty(len(rows))
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        index = np.flatnonzero(lengths == length)
        block = matrix[rows[index, None],
                       starts[index, None] + np.arange(length)]
        means[index] = np.add.reduce(block, axis=1) / length
    return means


def gather_session_params(state: SimState, sessions: SessionTable, loads,
                          cloud_rate) -> SessionParams:
    """Every session's scoring inputs, read from the table's columns.

    Arithmetic mirrors the scalar oracle
    (``tests/core/scoring_oracle.py``) operation for operation, as
    elementwise float64 (``np.minimum``/``np.maximum`` stand in for the
    scalar ``min``/``max`` clamps, equal for non-NaN inputs), so the
    estimate receives the scalar loop's bits.  All
    load and cloud window means come from one :func:`window_means`
    pass over the stacked count, rate and cloud-rate timelines.
    Continuity deadline semantics: the game's Table-2 requirement
    applies to packet delivery on the downstream path (upstream 0,
    processing = encode only); server interaction pipelines with
    rendering, so it affects only the response metric.
    """
    cols = sessions.columns
    players = sessions.players()
    player_list = players.tolist()
    games = state.game_code[players]
    starts = cols.start_subcycle[players]
    lengths = cols.end_subcycle[players] - starts + 1
    sids = cols.supernode_id[players]
    fog = sids >= 0
    fog_at, cloud_at = np.flatnonzero(fog), np.flatnonzero(~fog)

    # Window rows into [counts; rates; cloud_rate]: a fog session reads
    # its supernode's count and rate rows, any other session the cloud.
    num_rows = len(loads.ids)
    fog_rows = loads.row_of[sids[fog_at]]
    means = window_means(
        np.vstack((loads.counts, loads.rates, cloud_rate)),
        np.concatenate((fog_rows, fog_rows + num_rows,
                        np.full(len(cloud_at), 2 * num_rows))),
        np.concatenate((starts[fog_at], starts[fog_at], starts[cloud_at])),
        np.concatenate((lengths[fog_at], lengths[fog_at],
                        lengths[cloud_at])))
    num_fog = len(fog_at)
    mean_count = np.maximum(1.0, means[:num_fog])
    mean_rate = means[num_fog:2 * num_fog]
    concurrent = means[2 * num_fog:]

    pool = state.supernode_pool
    live = np.array(loads.ids, dtype=np.intp)
    upload = (pool.upload_mbps[live] * pool.throttle[live])[fog_rows]
    utilization = np.empty(len(players))
    utilization[fog_at] = np.minimum(2.0, mean_rate / upload)
    utilization[cloud_at] = np.minimum(
        2.0, concurrent / cloud_egress_budget(state))
    # A cloud share is always >= the 0.5 Mbps floor, so the scalar
    # loop's max(0.05, share) clamp is a no-op there.
    sender = np.empty(len(players))
    sender[fog_at] = np.maximum(0.05, upload / mean_count)
    sender[cloud_at] = np.maximum(
        CLOUD_FLOW_SHARE_FLOOR_MBPS,
        CLOUD_FLOW_HEADROOM * STREAM_RATE_MBPS[games[cloud_at]])
    processing = np.zeros(len(players))
    if state.compression is not None:
        processing[cloud_at] = state.compression.encode_latency_ms

    receiver = np.asarray(state.topology.player_links.download_mbps,
                          dtype=np.float64)[players]
    cap = state.config.workload.downlink_cap_mbps
    if cap is not None:
        # Scenario downlink cap (thin clients on constrained links).
        receiver = np.minimum(receiver, cap)

    server_cache = state.server_latency_cache
    default_hop_ms = state.datacenters[0].hop_ms
    server_ms = [CDN_COORDINATION_MS if kind == KIND_CDN
                 else server_cache.get(player, default_hop_ms)
                 for player, kind in zip(player_list,
                                         cols.kind[players].tolist())]
    return SessionParams(
        players=player_list, games=games,
        targets=np.where(fog, sids, state.nearest_dc[players]).tolist(),
        server_ms=server_ms, upstream_ms=cols.upstream_ms[players],
        budget_ms=LATENCY_REQUIREMENT_MS[games],
        path_ms=cols.latency_ms[players],
        sender_mbps=sender,
        receiver_mbps=receiver,
        processing_ms=processing, utilization=utilization)


def score_sessions_batch(state: SimState, day, sessions: SessionTable,
                         loads, cloud_rate, rng) -> SessionLog:
    """Batch scorer: one vectorised QoS evaluation for the day.

    Bit-identical to the scalar oracle (``tests/core/scoring_oracle.py``)
    for the same RNG stream (pinned by tests): the gathered parameters
    carry the scalar loop's bits and the batched estimate draws the
    identical random sequence.  Returns the day's sessions as one
    :class:`SessionLog` chunk, in table order.
    """
    if not sessions:
        return SessionLog()
    params = gather_session_params(state, sessions, loads, cloud_rate)
    outcome = estimate_continuity_batch(
        params.budget_ms, params.path_ms, params.sender_mbps,
        params.receiver_mbps, np.zeros_like(params.budget_ms),
        params.processing_ms, params.utilization, rng,
        duration_s=QOS_DURATION_S,
        adaptive=state.config.strategies.rate_adaptation,
        transport=state.transport, n_samples=QOS_SAMPLES)
    # Element-wise float64 addition in the scalar loop's operand
    # order — identical bits to per-record Python-float arithmetic.
    server_ms = np.array(params.server_ms, dtype=np.float64)
    responses = (params.upstream_ms + outcome.mean_response_latency_ms
                 + server_ms + PLAYOUT_PROCESSING_MS)
    cols = sessions.columns
    rows = np.asarray(params.players, dtype=np.intp)
    joined = cols.joined[rows]
    return SessionLog.of(
        player=rows, day=np.full(len(rows), day),
        game=params.games,
        kind=cols.kind[rows], target=params.targets,
        response_latency_ms=responses, server_latency_ms=server_ms,
        continuity=outcome.continuity, satisfied=outcome.satisfied,
        join_latency_ms=np.where(joined, cols.join_latency_ms[rows], np.nan),
        joined=joined)
