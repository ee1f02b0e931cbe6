"""Streaming sessions: the closed-form continuity estimate of a day.

:func:`estimate_continuity_batch` computes the continuity of a whole
day's sessions in closed form (stationary adaptation level + sampled
per-packet delays), one array slot per session.  It is the one
streaming model a run scores with: hundreds of thousands of sessions
per run make an event-level session too slow.

Tests pin it bit for bit against a frozen per-session oracle
(``tests/streaming/session_oracle.py``).  The discrete-event session
it approximates (sender queue, playback buffer, §3.3 rate controller
with hysteresis) is a frozen test oracle too
(``tests/streaming/event_session_oracle.py``); tests bound the
estimate's error against it on the sessions a run really scores.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.transport import TransportModel
from .continuity import SATISFIED_CONTINUITY_THRESHOLD
from .video import FRAME_RATE_FPS, QUALITY_LADDER

__all__ = ["BatchSessionOutcome", "estimate_continuity_batch",
           "initial_levels_batch", "stationary_levels_batch"]

#: Per-level lookup tables (index = level - 1), used by the batch path.
_LADDER_BITRATE_BPS = np.array([q.bitrate_bps for q in QUALITY_LADDER])
_LADDER_BITRATE_KBPS = np.array([float(q.bitrate_kbps)
                                 for q in QUALITY_LADDER])
_LADDER_REQUIREMENTS_MS = np.array([q.latency_requirement_ms
                                    for q in QUALITY_LADDER])


def initial_levels_batch(response_budget_ms) -> np.ndarray:
    """Vectorised :func:`level_for_latency_requirement` over budgets.

    Returns the 1-based initial quality level for each budget: the
    highest rung whose latency requirement fits, or level 1 when even
    the lowest rung exceeds the budget.
    """
    budgets = np.asarray(response_budget_ms, dtype=np.float64)
    if np.any(budgets <= 0):
        raise ValueError("response budgets must be positive")
    levels = np.searchsorted(_LADDER_REQUIREMENTS_MS, budgets, side="right")
    return np.maximum(levels, 1).astype(np.int64)


def stationary_levels_batch(initial_levels, sender_share_mbps,
                            receiver_download_mbps, sender_utilization,
                            adaptive=True,
                            transport: TransportModel | None = None
                            ) -> np.ndarray:
    """The level adaptation settles at, per session.

    Adapt-down fires while the stream bitrate exceeds what the congested
    bottleneck sustains (with a safety margin matching the controller's
    proactive down-threshold); adapt-up never exceeds the game's fitting
    level.  Without adaptation the level is pinned at the game default.
    The adapt-down loop runs level by level (the ladder is tiny) with
    the arithmetic of the per-session oracle
    (``tests/streaming/session_oracle.py``), so the levels match it
    exactly.
    """
    transport = transport or TransportModel()
    levels = np.array(initial_levels, dtype=np.int64, copy=True)
    sender = np.asarray(sender_share_mbps, dtype=np.float64)
    receiver = np.asarray(receiver_download_mbps, dtype=np.float64)
    adaptive = np.broadcast_to(np.asarray(adaptive, dtype=bool), levels.shape)
    throughput = np.minimum(sender, receiver)
    sustainable = throughput / transport.congestion_factors(
        sender_utilization)
    threshold = 0.9 * sustainable
    for _ in range(len(QUALITY_LADDER) - 1):
        bitrate_mbps = _LADDER_BITRATE_BPS[levels - 1] / 1e6
        down = adaptive & (levels > 1) & ~(bitrate_mbps <= threshold)
        if not down.any():
            break
        levels = np.where(down, levels - 1, levels)
    return levels


@dataclass(frozen=True)
class BatchSessionOutcome:
    """Vectorised session outcomes: one array slot per session.

    Field semantics match the per-session oracle's ``SessionResult``
    and its ``ContinuityStats`` (``tests/streaming``), bit for bit.
    """

    final_levels: np.ndarray          # (n,) int64
    packets_total: np.ndarray         # (n,) int64
    packets_on_time: np.ndarray       # (n,) int64
    stall_events: np.ndarray          # (n,) int64
    total_stall_s: np.ndarray         # (n,) float64
    mean_response_latency_ms: np.ndarray
    mean_bitrate_kbps: np.ndarray
    adjustments: np.ndarray           # (n,) int64

    @property
    def continuity(self) -> np.ndarray:
        """Per-session continuity (on-time share of total packets)."""
        return self.packets_on_time / self.packets_total

    @property
    def satisfied(self) -> np.ndarray:
        """The paper's satisfied-player predicate, per session."""
        return self.continuity >= SATISFIED_CONTINUITY_THRESHOLD


def estimate_continuity_batch(
    response_budget_ms,
    path_latency_ms,
    sender_share_mbps,
    receiver_download_mbps,
    upstream_one_way_ms,
    processing_ms,
    sender_utilization,
    rng: np.random.Generator,
    *,
    duration_s=60.0,
    segment_s=1.0,
    adaptive=True,
    levels=None,
    transport: TransportModel | None = None,
    n_samples: int = 128,
) -> BatchSessionOutcome:
    """Closed-form session estimate over arrays of sessions.

    1. Find the stationary adaptation level.
    2. The deliverable packet share is capped by bottleneck throughput /
       stream bitrate (a persistently oversubscribed queue makes the
       excess share late no matter what).
    3. Sample per-packet delays (service + propagation + jitter) and
       losses; continuity = deliverable share x on-time share.

    All parameters broadcast against each other to one session axis;
    ``levels`` optionally supplies precomputed stationary levels
    (otherwise :func:`stationary_levels_batch` derives them).

    RNG-ordering contract (pinned by tests): the per-session oracle
    (``tests/streaming/session_oracle.py``) draws, per session, one jitter block (``uniform(1-j, 1+j, n_samples)``) then
    one loss block (``random(n_samples)``).  Both map the *same*
    underlying uniform doubles (``uniform(lo, hi)`` is exactly
    ``lo + (hi - lo) * random()`` draw for draw), so the batch path
    draws one ``(n, 2 * n_samples)`` block — the identical stream — and
    splits it per session.  With jitter disabled the oracle draws only
    the loss block, and so does the batch.  Every arithmetic step is
    element-wise identical to the oracle's, which keeps results
    bit-identical for the same seed.
    """
    transport = transport or TransportModel()
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    budgets, path_latency, sender, receiver, upstream, processing, util, \
        duration, segment = np.broadcast_arrays(
            *(np.asarray(a, dtype=np.float64) for a in (
                response_budget_ms, path_latency_ms, sender_share_mbps,
                receiver_download_mbps, upstream_one_way_ms, processing_ms,
                sender_utilization, duration_s, segment_s)))
    budgets = np.atleast_1d(budgets)
    path_latency = np.atleast_1d(path_latency)
    sender = np.atleast_1d(sender)
    receiver = np.atleast_1d(receiver)
    upstream = np.atleast_1d(upstream)
    processing = np.atleast_1d(processing)
    util = np.atleast_1d(util)
    duration = np.atleast_1d(duration)
    segment = np.atleast_1d(segment)
    n = budgets.shape[0]
    if np.any(budgets <= 0):
        raise ValueError("response budgets must be positive")
    if np.any(duration <= 0) or np.any(segment <= 0):
        raise ValueError("durations must be positive")
    if np.any(upstream < 0) or np.any(processing < 0):
        raise ValueError("latencies must be non-negative")
    if np.any(sender <= 0) or np.any(receiver <= 0):
        raise ValueError("path bandwidths must be positive")

    initial = initial_levels_batch(budgets)
    if levels is None:
        levels = stationary_levels_batch(initial, sender, receiver, util,
                                         adaptive, transport)
    else:
        levels = np.broadcast_to(
            np.asarray(levels, dtype=np.int64), (n,)).copy()

    bitrate_bps = _LADDER_BITRATE_BPS[levels - 1]
    packets_per_segment = np.maximum(
        1, np.rint(segment * FRAME_RATE_FPS).astype(np.int64))
    packet_size_bits = bitrate_bps * segment / packets_per_segment

    mbps = np.minimum(sender, receiver)
    base_ms = packet_size_bits / (mbps * 1000.0)
    service_ms = base_ms * transport.congestion_factors(util)
    deliverable = np.minimum(1.0, mbps / (bitrate_bps / 1e6))

    base_delay = path_latency + service_ms
    # Responses built in place: the oracle's IEEE operations on the same
    # operands, ``upstream + base * (low + span * u) + processing``.
    if transport.jitter_fraction > 0:
        low = 1.0 - transport.jitter_fraction
        span = (1.0 + transport.jitter_fraction) - low
        block = rng.random((n, 2 * n_samples))
        responses = block[:, :n_samples] * span
        responses += low
        responses *= base_delay[:, None]
        loss_uniforms = block[:, n_samples:]
    else:
        responses = np.repeat(base_delay[:, None], n_samples, axis=1)
        loss_uniforms = rng.random((n, n_samples))
    responses += upstream[:, None]
    responses += processing[:, None]
    on_time = responses <= budgets[:, None]
    on_time &= loss_uniforms >= transport.loss_rates(util)[:, None]
    continuity = deliverable * (np.count_nonzero(on_time, axis=1)
                                / n_samples)

    total_packets = (np.rint(duration / segment).astype(np.int64)
                     * packets_per_segment)
    packets_total = np.maximum(total_packets, 1)
    packets_on_time = np.rint(continuity * packets_total).astype(np.int64)
    return BatchSessionOutcome(
        final_levels=levels,
        packets_total=packets_total,
        packets_on_time=packets_on_time,
        stall_events=np.where(continuity > 0.9, 0, 1).astype(np.int64),
        total_stall_s=np.maximum(0.0, (1.0 - deliverable) * duration),
        mean_response_latency_ms=responses.mean(axis=1),
        mean_bitrate_kbps=_LADDER_BITRATE_KBPS[levels - 1],
        adjustments=np.abs(initial - levels),
    )
