"""Quality-of-Experience model — the paper's second future-work item.

"We will study how to evaluate the user Quality of Experience (QoE)
when using the CloudFog system" (§5).  This module provides a
mean-opinion-score (MOS) model in the style of the cloud-gaming QoE
studies the paper builds on (Jarschel et al. [6], Hobfeld et al. [22]):
a 1–5 score combining three components —

* **fluency**: playback continuity dominates perceived quality; its
  effect is super-linear (a stream missing 10 % of packets is far more
  than 10 % worse), modelled as continuity squared;
* **fidelity**: logarithmic utility of the video bitrate across the
  Table-2 ladder (doubling the bitrate adds a constant perceived step);
* **responsiveness**: a smooth penalty as the response latency
  approaches and exceeds the genre's requirement.

Weights follow the cloud-gaming finding that interaction fluency and
responsiveness outweigh static image quality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .video import QUALITY_LADDER

__all__ = ["QoeModel", "MosBreakdown"]

_MIN_KBPS = QUALITY_LADDER[0].bitrate_kbps
_MAX_KBPS = QUALITY_LADDER[-1].bitrate_kbps


@dataclass(frozen=True)
class MosBreakdown:
    """A MOS and the component scores (each in [0, 1]) behind it."""

    mos: float
    fluency: float
    fidelity: float
    responsiveness: float


@dataclass(frozen=True)
class QoeModel:
    """Configurable MOS model; defaults weight fluency highest."""

    fluency_weight: float = 0.5
    fidelity_weight: float = 0.2
    responsiveness_weight: float = 0.3
    #: Latency past requirement x this factor scores 0 responsiveness.
    latency_hard_factor: float = 2.0

    def __post_init__(self) -> None:
        total = (self.fluency_weight + self.fidelity_weight
                 + self.responsiveness_weight)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        if min(self.fluency_weight, self.fidelity_weight,
               self.responsiveness_weight) < 0:
            raise ValueError("weights must be non-negative")
        if self.latency_hard_factor <= 1.0:
            raise ValueError("latency_hard_factor must exceed 1")

    # -- components --------------------------------------------------------
    @staticmethod
    def fluency_score(continuity: float) -> float:
        """Super-linear continuity utility."""
        if not 0.0 <= continuity <= 1.0:
            raise ValueError("continuity lies in [0, 1]")
        return continuity ** 2

    @staticmethod
    def fidelity_score(bitrate_kbps: float) -> float:
        """Log utility over the Table-2 ladder, clipped to [0, 1]."""
        if bitrate_kbps <= 0:
            raise ValueError("bitrate must be positive")
        raw = (math.log(bitrate_kbps / _MIN_KBPS)
               / math.log(_MAX_KBPS / _MIN_KBPS))
        return min(1.0, max(0.0, raw))

    def responsiveness_score(self, response_latency_ms: float,
                             requirement_ms: float) -> float:
        """1 while comfortably inside the budget, 0 past 2x over it."""
        if response_latency_ms < 0 or requirement_ms <= 0:
            raise ValueError("latencies must be positive")
        if response_latency_ms <= requirement_ms:
            return 1.0
        hard = requirement_ms * self.latency_hard_factor
        if response_latency_ms >= hard:
            return 0.0
        return (hard - response_latency_ms) / (hard - requirement_ms)

    # -- MOS -----------------------------------------------------------------
    def mos(self, continuity: float, bitrate_kbps: float,
            response_latency_ms: float, requirement_ms: float
            ) -> MosBreakdown:
        """Mean opinion score on the standard 1-5 scale."""
        fluency = self.fluency_score(continuity)
        fidelity = self.fidelity_score(bitrate_kbps)
        responsiveness = self.responsiveness_score(response_latency_ms,
                                                   requirement_ms)
        utility = (self.fluency_weight * fluency
                   + self.fidelity_weight * fidelity
                   + self.responsiveness_weight * responsiveness)
        return MosBreakdown(mos=1.0 + 4.0 * utility,
                            fluency=fluency,
                            fidelity=fidelity,
                            responsiveness=responsiveness)

    def session_mos(self, continuity: float, response_latency_ms: float,
                    requirement_ms: float, bitrate_kbps: float) -> float:
        """MOS of one logged session from its continuity and response
        latency (columns of a :class:`repro.core.SessionLog`)."""
        return self.mos(continuity, bitrate_kbps, response_latency_ms,
                        requirement_ms).mos
