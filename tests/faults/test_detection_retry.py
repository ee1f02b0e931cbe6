"""Failure detection timing."""

import numpy as np
import pytest

from repro.faults.detection import FailureDetector


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

