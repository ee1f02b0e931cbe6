"""Provider-side defences against the §3.6 threats.

Two detectors, one per detectable attack:

* **Reward audit** (vs junk injection): the provider independently
  knows which players it brokered to each supernode and their game
  bitrates, so it can bound the legitimate traffic.  Reports whose
  claimed/expected ratio exceeds a threshold are flagged and the
  supernode quarantined.
* **Delay-attack detection**: deliberate delaying *is* bad streaming
  service; the Eq.-7 reputation scores players already keep catch it.
  The detector aggregates per-supernode rating statistics the provider
  can request (first-person scores stay sybil-proof; the provider only
  thresholds their per-supernode mean).

Eavesdropping is not detectable from traffic at all: its defence is
structural (end-to-end encryption of user data; supernodes only ever
hold world-state updates and rendered frames), so it has no detector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .threats import TrafficReport

__all__ = ["AuditResult", "RewardAuditor", "DelayAttackDetector"]


@dataclass(frozen=True)
class AuditResult:
    """Outcome of one billing audit pass."""

    flagged: tuple[int, ...]
    ratios: dict[int, float] = field(compare=False, default_factory=dict)


@dataclass
class RewardAuditor:
    """Flags supernodes whose claimed traffic exceeds what the provider
    can account for."""

    #: Tolerated claimed/expected ratio (honest noise stays well below).
    tolerance: float = 1.5
    quarantined: set[int] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.tolerance <= 1.0:
            raise ValueError("tolerance must exceed 1 (honest ~= 1)")

    def audit(self, reports: list[TrafficReport]) -> AuditResult:
        """Audit one day's reports; quarantine the fraudulent."""
        flagged = []
        ratios = {}
        for report in reports:
            ratio = report.inflation_ratio
            ratios[report.supernode_id] = ratio
            if ratio > self.tolerance:
                flagged.append(report.supernode_id)
                self.quarantined.add(report.supernode_id)
        return AuditResult(flagged=tuple(flagged), ratios=ratios)

    def payable_gb(self, report: TrafficReport) -> float:
        """What the provider actually pays: capped at the accountable
        amount, zero while quarantined."""
        if report.supernode_id in self.quarantined:
            return 0.0
        return min(report.claimed_gb, report.expected_gb * self.tolerance)


@dataclass
class DelayAttackDetector:
    """Thresholds per-supernode mean ratings to catch deliberate delays.

    Players' Eq.-7 ratings are first-person; the provider aggregates the
    raw session ratings (not the scores) it is allowed to sample.  A
    supernode whose mean rating sits far below the fleet median over
    enough sessions is flagged.
    """

    min_sessions: int = 10
    z_threshold: float = 2.0
    _ratings: dict[int, list[float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.min_sessions < 1:
            raise ValueError("min_sessions must be >= 1")
        if self.z_threshold <= 0:
            raise ValueError("z_threshold must be positive")

    def record(self, supernode_id: int, rating: float) -> None:
        if not 0.0 <= rating <= 1.0:
            raise ValueError("ratings lie in [0, 1]")
        self._ratings.setdefault(supernode_id, []).append(rating)

    def suspects(self) -> list[int]:
        """Supernodes whose mean rating is an outlier on the low side."""
        means = {sn: float(np.mean(values))
                 for sn, values in self._ratings.items()
                 if len(values) >= self.min_sessions}
        if len(means) < 3:
            return []
        fleet = np.array(list(means.values()))
        median = float(np.median(fleet))
        spread = float(np.std(fleet))
        if spread == 0.0:
            return []
        return sorted(sn for sn, mean in means.items()
                      if (median - mean) / spread > self.z_threshold)
