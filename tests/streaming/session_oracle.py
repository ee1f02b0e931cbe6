"""Frozen oracle: the scalar session estimate, one session per call.

Verbatim copies, taken when the scalar twins left ``src/``, of
``stationary_level`` and ``estimate_continuity`` from
``repro.streaming.session``, and of the scalar ``TransportModel``
methods ``congestion_factor``, ``loss_rate``,
``effective_throughput_mbps``, ``serialization_ms`` and
``sample_losses``, written as functions of the transport model.  A run
scores every session through the vectorised
``estimate_continuity_batch`` / ``stationary_levels_batch`` and
``TransportModel.congestion_factors`` / ``loss_rates``; these are the
per-session definitions those functions are pinned against
(``test_session_batch.py``, ``tests/network/test_transport.py``), the
scalar scorer oracle (``tests/core/scoring_oracle.py``) and the
event-level session call, and the event-level tests compare against.
Do not edit this file to follow the live code.
"""

from __future__ import annotations

import numpy as np

from repro.network.transport import PathSpec, TransportModel
from repro.streaming.video import get_level

from .event_session_oracle import (
    ContinuityStats,
    Segment,
    SessionConfig,
    SessionResult,
)


# -- transport ----------------------------------------------------------------
def congestion_factor(transport: TransportModel, utilization: float) -> float:
    """Service-time inflation for a sender at ``utilization``.

    Utilisation is the sender's committed upload share in [0, 1+).
    Paced video streaming behaves like an M/D/1 queue, whose mean
    waiting factor is ``1 + rho / (2 (1 - rho))`` — gentle at
    moderate load, exploding near saturation — clipped to
    ``max_congestion_factor`` (overload does not stretch forever;
    packets start getting dropped instead, see :func:`loss_rate`).
    """
    if utilization < 0:
        raise ValueError(f"utilization must be non-negative, got {utilization}")
    if utilization >= 1:
        return transport.max_congestion_factor
    factor = 1.0 + utilization / (2.0 * (1.0 - utilization))
    return min(factor, transport.max_congestion_factor)


def loss_rate(transport: TransportModel, utilization: float) -> float:
    """Packet-loss probability as a function of sender utilisation."""
    if utilization < 0:
        raise ValueError(f"utilization must be non-negative, got {utilization}")
    overload = max(0.0, utilization - 0.85)
    return min(0.5, transport.base_loss_rate + overload * 0.8)


def effective_throughput_mbps(transport: TransportModel,
                              path: PathSpec) -> float:
    """Sustainable per-flow throughput: sender share capped by the
    receiver's download link.

    Queueing at the sender inflates *delay* (see
    :func:`serialization_ms`), not sustainable throughput — a stable
    queue still drains at the offered rate.
    """
    return min(path.sender_share_mbps, path.receiver_download_mbps)


def serialization_ms(transport: TransportModel, size_bits: float,
                     path: PathSpec, utilization: float = 0.0) -> float:
    """Time for ``size_bits`` to clear the sender, queueing included.

    Base serialisation through the path bottleneck, inflated by the
    M/D/1 waiting factor of the sender's utilisation.
    """
    if size_bits < 0:
        raise ValueError("size_bits must be non-negative")
    mbps = effective_throughput_mbps(transport, path)
    base_ms = size_bits / (mbps * 1000.0)  # bits / (Mbit/s) -> ms
    return base_ms * congestion_factor(transport, utilization)


def sample_losses(transport: TransportModel, count: int, utilization: float,
                  rng: np.random.Generator) -> np.ndarray:
    """Boolean loss mask for ``count`` packets at a utilisation."""
    if count < 0:
        raise ValueError("count must be non-negative")
    return rng.random(count) < loss_rate(transport, utilization)


# -- session estimate ---------------------------------------------------------
def stationary_level(config: SessionConfig,
                     transport: TransportModel | None = None) -> int:
    """The level adaptation settles at for a given path and load.

    Adapt-down fires while the stream bitrate exceeds what the congested
    bottleneck sustains (with a safety margin matching the controller's
    proactive down-threshold); adapt-up never exceeds the game's fitting
    level.  Without adaptation the level is pinned at the game default.
    """
    transport = transport or TransportModel()
    level = config.initial_level()
    if not config.adaptive:
        return level
    # Waiting inflates delay, not throughput, but a controller adapting
    # on buffer estimates effectively backs off once queueing builds, so
    # the sustainable rate discounts the congestion factor.
    sustainable_mbps = (effective_throughput_mbps(transport, config.path)
                        / congestion_factor(transport, config.sender_utilization))
    while level > 1:
        bitrate_mbps = get_level(level).bitrate_bps / 1e6
        if bitrate_mbps <= 0.9 * sustainable_mbps:
            break
        level -= 1
    return level


def estimate_continuity(config: SessionConfig,
                        rng: np.random.Generator,
                        transport: TransportModel | None = None,
                        n_samples: int = 128) -> SessionResult:
    """Closed-form session estimate consistent with the event-level path.

    1. Find the stationary adaptation level.
    2. The deliverable packet share is capped by bottleneck throughput /
       stream bitrate (a persistently oversubscribed queue makes the
       excess share late no matter what).
    3. Sample per-packet delays (service + propagation + jitter) and
       losses; continuity = deliverable share x on-time share.
    """
    transport = transport or TransportModel()
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    level = stationary_level(config, transport)
    quality = get_level(level)
    segment = Segment(0, quality, config.segment_s)

    service_ms = serialization_ms(
        transport, segment.packet_size_bits, config.path,
        config.sender_utilization)
    throughput_mbps = effective_throughput_mbps(transport, config.path)
    deliverable = min(1.0, throughput_mbps / (quality.bitrate_bps / 1e6))

    delays = np.full(n_samples, config.path.one_way_latency_ms + service_ms)
    if transport.jitter_fraction > 0:
        delays = delays * rng.uniform(1.0 - transport.jitter_fraction,
                                      1.0 + transport.jitter_fraction,
                                      size=n_samples)
    lost = sample_losses(transport, n_samples, config.sender_utilization, rng)
    responses = config.upstream_one_way_ms + delays + config.processing_ms
    on_time_share = float(((responses <= config.response_budget_ms) & ~lost).mean())
    continuity = deliverable * on_time_share

    total_packets = int(round(config.duration_s / config.segment_s)
                        * segment.packet_count)
    stats = ContinuityStats(
        packets_total=max(total_packets, 1),
        packets_on_time=int(round(continuity * max(total_packets, 1))),
        stall_events=0 if continuity > 0.9 else 1,
        total_stall_s=max(0.0, (1.0 - deliverable) * config.duration_s),
    )
    return SessionResult(
        stats=stats,
        mean_response_latency_ms=float(responses.mean()),
        final_level=level,
        mean_bitrate_kbps=float(quality.bitrate_kbps),
        adjustments=abs(config.initial_level() - level),
    )
