"""Frozen oracle: the event-level streaming session.

Verbatim copies, taken when they left ``src/``, of
``repro.streaming.segments`` (``Segment``), ``repro.streaming.buffer``
(``BufferEstimator``, ``PlaybackBuffer``), ``repro.streaming.adaptation``
(``Adjustment``, ``RateController``), ``ContinuityStats`` from
``repro.streaming.continuity`` and ``SessionConfig``, ``SessionResult``,
``_packet_delays_ms`` and ``simulate_session`` from
``repro.streaming.session``.  The scalar transport methods they call
now live in ``session_oracle.py`` as functions of the model, imported
where they are used because that module imports this one.

A run scores every session through the closed-form
``estimate_continuity_batch``.  This module is the discrete-event model
that estimate approximates: a sender process paces segments at the
rate controller's current quality level through an M/D/1-style sender
queue on the ``tests/sim/engine_oracle.py`` event loop, a receiver
updates the playback buffer and the Eq. 8-9 estimate, and the §3.3
controller (Eqs. 10-12) adjusts the level with hysteresis.  Per-packet
response latencies are recorded against the game's budget.  The
per-session estimate (``session_oracle.py``), the scalar scorer, the
multiplexer reference, the adaptation ablation bench and the
estimator's error-envelope test build on it.  Do not edit this file to
follow the live code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from repro.network.transport import PathSpec, TransportModel
from repro.streaming.continuity import is_satisfied
from repro.streaming.video import (
    FRAME_RATE_FPS,
    QUALITY_LADDER,
    QualityLevel,
    adjust_up_factor,
    get_level,
    level_for_latency_requirement,
)

from ..sim.engine_oracle import Environment


# -- segments -----------------------------------------------------------------
#: Default segment duration τ (seconds of video per segment).
DEFAULT_SEGMENT_SECONDS = 1.0


@dataclass(frozen=True)
class Segment:
    """One encoded segment of game video."""

    index: int
    quality: QualityLevel
    duration_s: float = DEFAULT_SEGMENT_SECONDS

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"segment index must be >= 0, got {self.index}")
        if self.duration_s <= 0:
            raise ValueError(f"duration must be positive, got {self.duration_s}")

    @property
    def size_bits(self) -> float:
        """Encoded size: bitrate × duration."""
        return self.quality.bitrate_bps * self.duration_s

    @property
    def packet_count(self) -> int:
        """One packet per frame at 30 fps."""
        return max(1, round(self.duration_s * FRAME_RATE_FPS))

    @property
    def packet_size_bits(self) -> float:
        return self.size_bits / self.packet_count


# -- playback buffer (Eqs. 8-9) -----------------------------------------------
@dataclass
class BufferEstimator:
    """Rate-based buffered-size estimator (Eqs. 8–9).

    The sizes are in *bits* of buffered video; ``segments`` converts to
    segment counts through the current segment bit-size (level-dependent,
    so the caller passes it in).
    """

    size_bits: float = 0.0
    last_time_s: float = 0.0

    def update(self, time_s: float, download_bps: float,
               playback_bps: float) -> float:
        """Advance the estimate to ``time_s`` and return the new size."""
        if time_s < self.last_time_s:
            raise ValueError(
                f"time went backwards: {time_s} < {self.last_time_s}")
        if download_bps < 0 or playback_bps < 0:
            raise ValueError("rates must be non-negative")
        elapsed = time_s - self.last_time_s
        self.size_bits = max(
            0.0, self.size_bits + elapsed * (download_bps - playback_bps))
        self.last_time_s = time_s
        return self.size_bits

    def segments(self, segment_size_bits: float) -> float:
        """Eq. 9: r = s(t_k) / tau (in current-level segment units)."""
        if segment_size_bits <= 0:
            raise ValueError("segment_size_bits must be positive")
        return self.size_bits / segment_size_bits


@dataclass
class PlaybackBuffer:
    """Actual buffered playable video, in seconds.

    Tracks arrivals (whole segments) and continuous playback drain, and
    counts stalls: instants at which playback wants to proceed but the
    buffer is empty.
    """

    seconds: float = 0.0
    total_stall_s: float = 0.0
    stall_events: int = 0
    _stalled: bool = field(default=False, repr=False)

    def add_segment(self, duration_s: float) -> None:
        """A segment of ``duration_s`` seconds of video arrived."""
        if duration_s <= 0:
            raise ValueError("segment duration must be positive")
        self.seconds += duration_s
        self._stalled = False

    def play(self, elapsed_s: float) -> float:
        """Drain ``elapsed_s`` of wall-clock playback.

        Returns the stalled portion of the interval (time for which no
        video was available).  Each transition into the stalled state
        counts one stall event.
        """
        if elapsed_s < 0:
            raise ValueError("elapsed time must be non-negative")
        played = min(elapsed_s, self.seconds)
        stalled = elapsed_s - played
        self.seconds -= played
        if stalled > 0:
            if not self._stalled:
                self.stall_events += 1
                self._stalled = True
            self.total_stall_s += stalled
        return stalled

    @property
    def is_empty(self) -> bool:
        return self.seconds <= 0


# -- rate adaptation (Eqs. 10-12) --------------------------------------------
#: Default adjust-down threshold theta (>= 1 per Eq. 12); the evaluation
#: section's default setting.
DEFAULT_ADJUST_DOWN_THRESHOLD = 1.5


class Adjustment(Enum):
    """Outcome of one controller observation."""

    NONE = "none"
    UP = "up"
    DOWN = "down"


@dataclass
class RateController:
    """One player's adaptation state machine."""

    initial_level: int
    tolerance: float = 1.0
    theta: float = DEFAULT_ADJUST_DOWN_THRESHOLD
    hysteresis: int = 3
    enabled: bool = True
    ladder: Sequence[QualityLevel] = QUALITY_LADDER

    level: int = field(init=False)
    adjustments: int = field(init=False, default=0)
    _beta: float = field(init=False)
    _up_streak: int = field(init=False, default=0)
    _down_streak: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        if not 0 < self.tolerance <= 1:
            raise ValueError(f"tolerance must lie in (0, 1], got {self.tolerance}")
        if self.theta < 1:
            raise ValueError(f"theta must be >= 1 (Eq. 12), got {self.theta}")
        if self.hysteresis < 1:
            raise ValueError(f"hysteresis must be >= 1, got {self.hysteresis}")
        get_level(self.initial_level, self.ladder)  # validates range
        self.level = self.initial_level
        self._beta = adjust_up_factor(self.ladder)

    # -- thresholds --------------------------------------------------------
    @property
    def beta(self) -> float:
        """Eq. 11 adjust-up factor for the configured ladder."""
        return self._beta

    @property
    def up_threshold(self) -> float:
        """Tolerance-scaled Eq. 10 threshold: (1 + beta) / rho."""
        return (1.0 + self._beta) / self.tolerance

    @property
    def down_threshold(self) -> float:
        """Tolerance-scaled Eq. 12 threshold: theta / rho."""
        return self.theta / self.tolerance

    @property
    def quality(self) -> QualityLevel:
        return get_level(self.level, self.ladder)

    # -- control -----------------------------------------------------------
    def observe(self, buffered_segments: float) -> Adjustment:
        """Feed one estimate of ``r``; maybe adjust the level.

        Returns the adjustment applied (after hysteresis).  A disabled
        controller never adjusts (§3.3: users can pin the default rate).
        """
        if buffered_segments < 0:
            raise ValueError("buffered_segments must be non-negative")
        if not self.enabled:
            return Adjustment.NONE

        if buffered_segments > self.up_threshold:
            self._up_streak += 1
            self._down_streak = 0
        elif buffered_segments < self.down_threshold:
            self._down_streak += 1
            self._up_streak = 0
        else:
            self._up_streak = 0
            self._down_streak = 0
            return Adjustment.NONE

        # A satisfied hysteresis consumes the streak whether or not the
        # ladder has room: at a boundary the trigger still fires (and
        # resolves to no-op), so the next adjustment needs a full fresh
        # streak rather than firing on the first post-boundary estimate.
        if self._up_streak >= self.hysteresis:
            self._up_streak = 0
            if self.level < len(self.ladder):
                self.level += 1
                self.adjustments += 1
                return Adjustment.UP
            return Adjustment.NONE
        if self._down_streak >= self.hysteresis:
            self._down_streak = 0
            if self.level > 1:
                self.level -= 1
                self.adjustments += 1
                return Adjustment.DOWN
            return Adjustment.NONE
        return Adjustment.NONE


# -- continuity ---------------------------------------------------------------
@dataclass(frozen=True)
class ContinuityStats:
    """Aggregate continuity outcome of one streaming session."""

    packets_total: int
    packets_on_time: int
    stall_events: int
    total_stall_s: float

    def __post_init__(self) -> None:
        if self.packets_total < 0 or self.packets_on_time < 0:
            raise ValueError("packet counts must be non-negative")
        if self.packets_on_time > self.packets_total:
            raise ValueError("on-time packets cannot exceed total packets")

    @property
    def continuity(self) -> float:
        if self.packets_total == 0:
            return 1.0
        return self.packets_on_time / self.packets_total

    @property
    def satisfied(self) -> bool:
        return is_satisfied(self.continuity)


# -- the event-level session -------------------------------------------------
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
    from .session_oracle import serialization_ms

    n = segment.packet_count
    service_ms = serialization_ms(
        transport, segment.packet_size_bits, path, utilization)
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
    from .session_oracle import sample_losses

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
            loss_mask = sample_losses(
                transport, segment.packet_count, config.sender_utilization,
                rng)
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
