"""Security extension: the §3.6 threat catalogue and provider defences."""

from .detection import (
    AuditResult,
    DelayAttackDetector,
    RewardAuditor,
)
from .threats import (
    MaliciousProfile,
    ThreatKind,
    TrafficReport,
    honest_report,
    malicious_report,
)

__all__ = [
    "AuditResult",
    "DelayAttackDetector",
    "RewardAuditor",
    "MaliciousProfile",
    "ThreatKind",
    "TrafficReport",
    "honest_report",
    "malicious_report",
]
