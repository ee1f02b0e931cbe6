"""Tests for the provider-side defences."""

import numpy as np
import pytest

from repro.security.detection import (
    DelayAttackDetector,
    RewardAuditor,
)
from repro.security.threats import (
    MaliciousProfile,
    ThreatKind,
    honest_report,
    malicious_report,
)


def _reports(rng, honest=20, fraudulent=3, inflation=3.0):
    reports = []
    for sn_id in range(honest):
        reports.append(honest_report(sn_id, 10.0, 4, rng))
    profile = MaliciousProfile(ThreatKind.JUNK_INJECTION, inflation=inflation)
    for sn_id in range(honest, honest + fraudulent):
        reports.append(malicious_report(sn_id, 10.0, 4, profile, rng))
    return reports


def test_reward_audit_catches_fraud_without_false_positives():
    rng = np.random.default_rng(0)
    auditor = RewardAuditor(tolerance=1.5)
    result = auditor.audit(_reports(rng))
    assert set(result.flagged) == {20, 21, 22}
    assert all(sn not in result.flagged for sn in range(20))


def test_quarantined_supernodes_earn_nothing():
    rng = np.random.default_rng(0)
    auditor = RewardAuditor()
    reports = _reports(rng, honest=2, fraudulent=1)
    auditor.audit(reports)
    fraud = reports[-1]
    assert auditor.payable_gb(fraud) == 0.0
    honest = reports[0]
    assert auditor.payable_gb(honest) > 0.0
    # Even unflagged claims are capped at tolerance x expected.
    assert auditor.payable_gb(honest) <= 10.0 * auditor.tolerance


def test_auditor_validation():
    with pytest.raises(ValueError):
        RewardAuditor(tolerance=1.0)


def test_delay_detector_flags_low_outlier():
    detector = DelayAttackDetector(min_sessions=5, z_threshold=2.0)
    rng = np.random.default_rng(0)
    for sn_id in range(12):
        for _ in range(8):
            detector.record(sn_id, float(np.clip(
                rng.normal(0.93, 0.02), 0, 1)))
    for _ in range(8):
        detector.record(99, float(np.clip(rng.normal(0.45, 0.05), 0, 1)))
    assert detector.suspects() == [99]


def test_delay_detector_needs_enough_sessions():
    detector = DelayAttackDetector(min_sessions=10)
    detector.record(1, 0.1)
    assert detector.suspects() == []


def test_delay_detector_uniform_fleet_has_no_suspects():
    detector = DelayAttackDetector(min_sessions=1)
    for sn_id in range(5):
        detector.record(sn_id, 0.9)
    assert detector.suspects() == []


def test_delay_detector_validation():
    with pytest.raises(ValueError):
        DelayAttackDetector(min_sessions=0)
    with pytest.raises(ValueError):
        DelayAttackDetector(z_threshold=0.0)
    with pytest.raises(ValueError):
        DelayAttackDetector().record(1, 1.5)

