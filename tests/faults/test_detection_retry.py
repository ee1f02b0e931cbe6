"""Failure detection timing and retry/backoff policy."""

import numpy as np
import pytest

from repro.faults.detection import FailureDetector
from repro.faults.retry import RetryPolicy


def test_default_expectation_matches_legacy_constant():
    """Heartbeat defaults reproduce the historical 500 ms timeout."""
    detector, rng = FailureDetector(), np.random.default_rng(1)
    draws = [detector.detection_latency_ms(rng) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(500.0, rel=0.02)


def test_detection_requires_an_rng():
    """Every detection is a per-crash draw; there is no default."""
    with pytest.raises(TypeError):
        FailureDetector().detection_latency_ms()


def test_detection_with_rng_spans_the_phase_window():
    detector = FailureDetector()
    rng = np.random.default_rng(0)
    draws = [detector.detection_latency_ms(rng) for _ in range(500)]
    low = (detector.misses_to_declare - 1) * detector.heartbeat_interval_ms \
        + detector.probe_timeout_ms
    high = low + detector.heartbeat_interval_ms
    assert all(low <= d <= high for d in draws)
    # The mean converges to the middle of the phase window.
    assert np.mean(draws) == pytest.approx((low + high) / 2, rel=0.05)


def test_backoff_grows_exponentially_to_the_cap():
    policy = RetryPolicy(max_attempts=5, base_delay_ms=50.0,
                         multiplier=2.0, cap_ms=300.0, jitter_fraction=0.0)
    assert policy.backoff_ms(0) == 50.0
    assert policy.backoff_ms(1) == 100.0
    assert policy.backoff_ms(2) == 200.0
    assert policy.backoff_ms(3) == 300.0  # capped
    assert policy.backoff_ms(4) == 300.0


def test_backoff_jitter_stays_bounded():
    policy = RetryPolicy(jitter_fraction=0.2)
    rng = np.random.default_rng(1)
    for attempt in range(3):
        nominal = policy.backoff_ms(attempt)
        for _ in range(100):
            jittered = policy.backoff_ms(attempt, rng)
            assert 0.8 * nominal <= jittered <= 1.2 * nominal


def test_backoff_budget_sums_worst_case():
    policy = RetryPolicy(max_attempts=3, base_delay_ms=50.0,
                         multiplier=2.0, cap_ms=1000.0,
                         jitter_fraction=0.0)
    # Two backoffs can occur between three attempts: 50 + 100.
    assert policy.total_backoff_budget_ms() == pytest.approx(150.0)
