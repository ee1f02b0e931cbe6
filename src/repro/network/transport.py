"""Transport model: how long a packet / video segment takes to arrive.

Streaming QoS in the paper is packet-deadline based: "continuity is
measured by the proportion of packets arrived within the required
response latency over all packets in a game video" (§4.1).  The
delivery time of a segment therefore needs three ingredients:

* one-way path latency (from :mod:`repro.network.latency`);
* serialisation time: segment bits over the bottleneck throughput
  (sender upload share vs receiver download);
* congestion inflation: when a sender's upload is nearly saturated the
  effective service time stretches, modelled with the standard
  M/M/1-style ``1 / (1 - utilisation)`` factor capped for stability.

Everything is deterministic given the sampled jitter, so streaming
sessions remain reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PathSpec", "TransportModel"]


@dataclass(frozen=True)
class PathSpec:
    """A unidirectional delivery path between two endpoints."""

    one_way_latency_ms: float
    sender_share_mbps: float
    receiver_download_mbps: float

    def __post_init__(self) -> None:
        if self.one_way_latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.sender_share_mbps <= 0 or self.receiver_download_mbps <= 0:
            raise ValueError("path bandwidths must be positive")


@dataclass
class TransportModel:
    """Computes delivery times and loss for packets and segments."""

    #: Maximum congestion inflation of the serialisation time.
    max_congestion_factor: float = 8.0
    #: Per-packet jitter scale (ms) applied multiplicatively around 1.
    jitter_fraction: float = 0.15
    #: Baseline random loss probability on a healthy path.
    base_loss_rate: float = 0.002

    def __post_init__(self) -> None:
        if self.max_congestion_factor < 1:
            raise ValueError("max_congestion_factor must be >= 1")
        if not 0 <= self.jitter_fraction < 1:
            raise ValueError("jitter_fraction must lie in [0, 1)")
        if not 0 <= self.base_loss_rate < 1:
            raise ValueError("base_loss_rate must lie in [0, 1)")

    def congestion_factors(self, utilization: np.ndarray) -> np.ndarray:
        """Service-time inflation for senders at ``utilization``.

        Utilisation is a sender's committed upload share in [0, 1+).
        Paced video streaming behaves like an M/D/1 queue, whose mean
        waiting factor is ``1 + rho / (2 (1 - rho))`` — gentle at
        moderate load, exploding near saturation — clipped to
        ``max_congestion_factor`` (overload does not stretch forever;
        packets start getting dropped instead, see :meth:`loss_rates`).
        """
        u = np.asarray(utilization, dtype=np.float64)
        if np.any(u < 0):
            raise ValueError("utilization must be non-negative")
        saturated = u >= 1.0
        safe = np.where(saturated, 0.0, u)
        factor = 1.0 + safe / (2.0 * (1.0 - safe))
        return np.where(saturated, self.max_congestion_factor,
                        np.minimum(factor, self.max_congestion_factor))

    def loss_rates(self, utilization: np.ndarray) -> np.ndarray:
        """Packet-loss probability as a function of sender utilisation."""
        u = np.asarray(utilization, dtype=np.float64)
        if np.any(u < 0):
            raise ValueError("utilization must be non-negative")
        overload = np.maximum(0.0, u - 0.85)
        return np.minimum(0.5, self.base_loss_rate + overload * 0.8)

    def degraded(self, loss_boost: float) -> "TransportModel":
        """A copy with an elevated baseline loss floor.

        Fault scenarios use this to model an ambiently lossy network
        (a :class:`~repro.faults.plan.FaultPlan` with
        ``ambient_loss_boost`` set): every path, healthy or not,
        drops at least ``base_loss_rate + loss_boost`` of its packets.
        The congestion/jitter behaviour is untouched.
        """
        if loss_boost < 0:
            raise ValueError("loss_boost must be non-negative")
        return TransportModel(
            max_congestion_factor=self.max_congestion_factor,
            jitter_fraction=self.jitter_fraction,
            base_loss_rate=min(0.5, self.base_loss_rate + loss_boost))
