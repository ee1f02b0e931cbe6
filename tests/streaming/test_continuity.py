"""Tests for continuity metrics and the satisfied-player predicate."""

import pytest

from repro.streaming.continuity import (
    SATISFIED_CONTINUITY_THRESHOLD,
    is_satisfied,
    satisfied_ratio,
)

from .event_session_oracle import ContinuityStats


def test_satisfied_threshold_is_95_percent():
    """§4.3.1: satisfied = 95 % of packets within the game's latency."""
    assert SATISFIED_CONTINUITY_THRESHOLD == 0.95
    assert is_satisfied(0.95)
    assert not is_satisfied(0.949)


def test_is_satisfied_validation():
    with pytest.raises(ValueError):
        is_satisfied(1.2)


def test_satisfied_ratio():
    assert satisfied_ratio([0.99, 0.90, 0.96, 0.50]) == pytest.approx(0.5)
    assert satisfied_ratio([]) == 0.0


def test_continuity_stats_properties():
    stats = ContinuityStats(packets_total=100, packets_on_time=96,
                            stall_events=0, total_stall_s=0.0)
    assert stats.continuity == pytest.approx(0.96)
    assert stats.satisfied


def test_continuity_stats_zero_packets():
    stats = ContinuityStats(0, 0, 0, 0.0)
    assert stats.continuity == 1.0


def test_continuity_stats_validation():
    with pytest.raises(ValueError):
        ContinuityStats(10, 11, 0, 0.0)
    with pytest.raises(ValueError):
        ContinuityStats(-1, 0, 0, 0.0)

