"""Streaming sessions: detailed (discrete-event) and fast (estimated).

Two fidelities:

* :func:`simulate_session` runs a full discrete-event session on the
  :mod:`repro.sim` engine: a sender process paces segments at the
  controller's current quality level through an M/D/1-style sender
  queue, a receiver updates the playback buffer and the Eq. 8–9
  estimate, and the rate controller adjusts the level with hysteresis.
  Per-packet response latencies are recorded against the game's budget.
  Used by the rate-adaptation ablation bench and example; the Fig. 11
  sweep scores its sessions with the batch estimator below.

* :func:`estimate_continuity_batch` computes the continuity of a whole
  day's sessions in closed form (stationary adaptation level + sampled
  per-packet delays), one array slot per session.  Used by the macro
  experiments, where hundreds of thousands of sessions per run make the
  event-level path too slow.  Tests pin it bit for bit against a frozen
  per-session oracle (``tests/streaming/session_oracle.py``) and check
  that oracle against the event-level path on clear cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..network.transport import PathSpec, TransportModel
from ..sim.engine import Environment
from .adaptation import RateController
from .buffer import BufferEstimator, PlaybackBuffer
from .continuity import SATISFIED_CONTINUITY_THRESHOLD, ContinuityStats
from .segments import DEFAULT_SEGMENT_SECONDS, Segment
from .video import (
    FRAME_RATE_FPS,
    QUALITY_LADDER,
    get_level,
    level_for_latency_requirement,
)

__all__ = ["SessionConfig", "SessionResult", "simulate_session",
           "BatchSessionOutcome",
           "estimate_continuity_batch", "initial_levels_batch",
           "stationary_levels_batch"]

#: Per-level lookup tables (index = level - 1), used by the batch path.
_LADDER_BITRATE_BPS = np.array([q.bitrate_bps for q in QUALITY_LADDER])
_LADDER_BITRATE_KBPS = np.array([float(q.bitrate_kbps)
                                 for q in QUALITY_LADDER])
_LADDER_REQUIREMENTS_MS = np.array([q.latency_requirement_ms
                                    for q in QUALITY_LADDER])


@dataclass(frozen=True)
class SessionConfig:
    """Everything one streaming session needs."""

    #: The game's total response-latency requirement (ms).
    response_budget_ms: float
    #: Latency tolerance degree rho of the game (Table 2).
    tolerance: float
    #: Downstream delivery path (renderer -> player).
    path: PathSpec
    #: Upstream one-way latency of the action leg (player -> cloud), ms.
    upstream_one_way_ms: float
    #: Fixed playout + processing delay (ms).
    processing_ms: float = 20.0
    #: Sender upload utilisation from concurrently served players.
    sender_utilization: float = 0.0
    #: Session length in seconds of video.
    duration_s: float = 60.0
    #: Segment duration tau.
    segment_s: float = DEFAULT_SEGMENT_SECONDS
    #: Receiver-driven adaptation on/off.
    adaptive: bool = True
    #: Adjust-down threshold theta.
    theta: float = 1.5
    #: Consecutive estimates required before adjusting.
    hysteresis: int = 3

    def __post_init__(self) -> None:
        if self.response_budget_ms <= 0:
            raise ValueError("response budget must be positive")
        if self.duration_s <= 0 or self.segment_s <= 0:
            raise ValueError("durations must be positive")
        if self.upstream_one_way_ms < 0 or self.processing_ms < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def network_budget_ms(self) -> float:
        """Downstream packet deadline implied by the total budget."""
        return max(1.0, self.response_budget_ms
                   - self.upstream_one_way_ms - self.processing_ms)

    def initial_level(self) -> int:
        return level_for_latency_requirement(self.response_budget_ms).level


@dataclass(frozen=True)
class SessionResult:
    """Outcome of one streaming session."""

    stats: ContinuityStats
    mean_response_latency_ms: float
    final_level: int
    mean_bitrate_kbps: float
    adjustments: int

    @property
    def continuity(self) -> float:
        return self.stats.continuity

    @property
    def satisfied(self) -> bool:
        return self.stats.satisfied


def _packet_delays_ms(segment: Segment, path: PathSpec,
                      transport: TransportModel, utilization: float,
                      queue_free_at_ms: float, gen_start_ms: float,
                      rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Per-packet one-way delays through the sender queue.

    Packets are generated evenly across the segment (one per frame) and
    serialised FIFO through the sender's upload at the congested service
    rate; delay = queueing + service + propagation (+ jitter).  Returns
    (delay array, updated queue-free time).
    """
    n = segment.packet_count
    service_ms = transport.serialization_ms(
        segment.packet_size_bits, path, utilization)
    gen_times = gen_start_ms + np.arange(n) * (segment.duration_s * 1000.0 / n)
    delays = np.empty(n, dtype=np.float64)
    free_at = queue_free_at_ms
    for i in range(n):
        start = max(gen_times[i], free_at)
        free_at = start + service_ms
        delays[i] = free_at - gen_times[i] + path.one_way_latency_ms
    if transport.jitter_fraction > 0:
        delays *= rng.uniform(1.0 - transport.jitter_fraction,
                              1.0 + transport.jitter_fraction, size=n)
    return delays, free_at


def simulate_session(config: SessionConfig,
                     rng: np.random.Generator,
                     transport: TransportModel | None = None) -> SessionResult:
    """Run one event-level streaming session and return its QoS."""
    transport = transport or TransportModel()
    env = Environment()
    controller = RateController(
        initial_level=config.initial_level(),
        tolerance=config.tolerance,
        theta=config.theta,
        hysteresis=config.hysteresis,
        enabled=config.adaptive,
    )
    # The client prebuffers before playback starts; the estimator opens
    # midway between the adjust-down and adjust-up thresholds so the
    # controller reacts to sustained rate imbalance, not to a cold start.
    initial_segment_bits = (get_level(config.initial_level()).bitrate_bps
                            * config.segment_s)
    prebuffer_segments = 0.5 * (controller.down_threshold
                                + controller.up_threshold)
    estimator = BufferEstimator(
        size_bits=prebuffer_segments * initial_segment_bits)
    playback = PlaybackBuffer()
    playback.add_segment(prebuffer_segments * config.segment_s)

    num_segments = max(1, round(config.duration_s / config.segment_s))
    response_latencies: list[float] = []
    losses: list[bool] = []
    bitrates: list[float] = []
    state = {"queue_free_ms": 0.0, "last_arrival_ms": 0.0, "epoch": 0}

    def sender(env: Environment):
        previous_level = controller.level
        for index in range(num_segments):
            if controller.level < previous_level:
                # Adapt-down flushes the stale high-bitrate backlog: the
                # encoder switches immediately and late frames are
                # skipped rather than delivered (§3.3: players "prefer
                # fluent play of the game though the game video gets a
                # bit blur").  The skipped packets were already counted
                # as late; bumping the epoch voids their in-flight
                # deliveries so they do not refill the buffer later.
                state["queue_free_ms"] = env.now * 1000.0
                state["epoch"] += 1
            previous_level = controller.level
            level = get_level(controller.level)
            segment = Segment(index, level, config.segment_s)
            bitrates.append(level.bitrate_kbps)
            gen_ms = env.now * 1000.0
            delays, state["queue_free_ms"] = _packet_delays_ms(
                segment, config.path, transport, config.sender_utilization,
                state["queue_free_ms"], gen_ms, rng)
            loss_mask = transport.sample_losses(
                segment.packet_count, config.sender_utilization, rng)
            for delay, lost in zip(delays, loss_mask):
                response_latencies.append(
                    config.upstream_one_way_ms + float(delay)
                    + config.processing_ms)
                losses.append(bool(lost))
            # The receiver sees the whole segment once its last packet
            # lands.
            arrival_offset_s = (segment.duration_s
                                + float(delays.max()) / 1000.0)
            env.process(receiver(env, segment, arrival_offset_s,
                                 state["epoch"]))
            yield env.timeout(config.segment_s)

    def receiver(env: Environment, segment: Segment, arrival_offset_s: float,
                 epoch: int):
        yield env.timeout(arrival_offset_s)
        if epoch != state["epoch"]:
            return  # flushed: the sender skipped these frames
        playback.add_segment(segment.duration_s)
        now_s = env.now
        elapsed = now_s - state["last_arrival_ms"] / 1000.0
        download_bps = segment.size_bits / elapsed if elapsed > 0 else 0.0
        state["last_arrival_ms"] = now_s * 1000.0
        estimator.update(now_s, download_bps, segment.quality.bitrate_bps)
        controller.observe(estimator.segments(segment.size_bits))

    def playout(env: Environment):
        # Playback starts after one segment of prebuffer time.
        yield env.timeout(config.segment_s)
        step = config.segment_s / 4.0
        while env.now < config.duration_s + config.segment_s:
            playback.play(step)
            yield env.timeout(step)

    env.process(sender(env))
    env.process(playout(env))
    env.run(until=config.duration_s + 4.0 * config.segment_s)

    latencies = np.asarray(response_latencies)
    lost = np.asarray(losses, dtype=bool)
    on_time = int(((latencies <= config.response_budget_ms) & ~lost).sum())
    stats = ContinuityStats(
        packets_total=int(latencies.size),
        packets_on_time=on_time,
        stall_events=playback.stall_events,
        total_stall_s=playback.total_stall_s,
    )
    return SessionResult(
        stats=stats,
        mean_response_latency_ms=float(latencies.mean()) if latencies.size else 0.0,
        final_level=controller.level,
        mean_bitrate_kbps=float(np.mean(bitrates)) if bitrates else 0.0,
        adjustments=controller.adjustments,
    )


# ---------------------------------------------------------------------------
# batch (vectorised) estimation — the macro-experiment hot path
# ---------------------------------------------------------------------------
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

    Field semantics match :class:`SessionResult` /
    :class:`~repro.streaming.continuity.ContinuityStats`; use
    :meth:`result` to materialise one session as a scalar
    :class:`SessionResult` (bit-identical to the scalar path).
    """

    final_levels: np.ndarray          # (n,) int64
    packets_total: np.ndarray         # (n,) int64
    packets_on_time: np.ndarray       # (n,) int64
    stall_events: np.ndarray          # (n,) int64
    total_stall_s: np.ndarray         # (n,) float64
    mean_response_latency_ms: np.ndarray
    mean_bitrate_kbps: np.ndarray
    adjustments: np.ndarray           # (n,) int64

    def __len__(self) -> int:
        return int(self.final_levels.shape[0])

    @property
    def continuity(self) -> np.ndarray:
        """Per-session continuity (on-time share of total packets)."""
        return self.packets_on_time / self.packets_total

    @property
    def satisfied(self) -> np.ndarray:
        """The paper's satisfied-player predicate, per session."""
        return self.continuity >= SATISFIED_CONTINUITY_THRESHOLD

    def result(self, index: int) -> SessionResult:
        """Materialise session ``index`` as a scalar SessionResult."""
        stats = ContinuityStats(
            packets_total=int(self.packets_total[index]),
            packets_on_time=int(self.packets_on_time[index]),
            stall_events=int(self.stall_events[index]),
            total_stall_s=float(self.total_stall_s[index]),
        )
        return SessionResult(
            stats=stats,
            mean_response_latency_ms=float(
                self.mean_response_latency_ms[index]),
            final_level=int(self.final_levels[index]),
            mean_bitrate_kbps=float(self.mean_bitrate_kbps[index]),
            adjustments=int(self.adjustments[index]),
        )


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
    segment_s=DEFAULT_SEGMENT_SECONDS,
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
    if transport.jitter_fraction > 0:
        low = 1.0 - transport.jitter_fraction
        span = (1.0 + transport.jitter_fraction) - low
        block = rng.random((n, 2 * n_samples))
        delays = base_delay[:, None] * (low + span * block[:, :n_samples])
        loss_uniforms = block[:, n_samples:]
    else:
        delays = np.broadcast_to(base_delay[:, None], (n, n_samples))
        loss_uniforms = rng.random((n, n_samples))
    lost = loss_uniforms < transport.loss_rates(util)[:, None]
    responses = upstream[:, None] + delays + processing[:, None]
    on_time_share = ((responses <= budgets[:, None]) & ~lost).mean(axis=1)
    continuity = deliverable * on_time_share

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
