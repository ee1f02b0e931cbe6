"""Tests for the buffer estimator (Eqs. 8-9) and playback buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .event_session_oracle import BufferEstimator, PlaybackBuffer


# ----------------------------------------------------------- estimator
def test_estimator_eq8_accumulation():
    est = BufferEstimator()
    # 2 seconds at download 1 Mbps vs playback 0.5 Mbps -> +1 Mbit.
    size = est.update(2.0, 1_000_000, 500_000)
    assert size == pytest.approx(1_000_000)
    # 1 more second draining at 0.5 Mbps deficit -> -0.5 Mbit.
    size = est.update(3.0, 0.0, 500_000)
    assert size == pytest.approx(500_000)


def test_estimator_never_negative():
    est = BufferEstimator()
    est.update(1.0, 0.0, 10_000_000)
    assert est.size_bits == 0.0


def test_estimator_eq9_segment_count():
    est = BufferEstimator(size_bits=2_400_000)
    # Segment of 800 kbit -> r = 3.
    assert est.segments(800_000) == pytest.approx(3.0)


def test_estimator_rejects_bad_inputs():
    est = BufferEstimator()
    est.update(5.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        est.update(4.0, 1.0, 1.0)  # time goes backwards
    with pytest.raises(ValueError):
        est.update(6.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        est.segments(0.0)


def test_estimator_balanced_rates_keep_size():
    est = BufferEstimator(size_bits=100.0)
    est.update(10.0, 5000.0, 5000.0)
    assert est.size_bits == pytest.approx(100.0)


# ------------------------------------------------------------ playback
def test_playback_basic_drain():
    buf = PlaybackBuffer()
    buf.add_segment(2.0)
    stalled = buf.play(1.5)
    assert stalled == 0.0
    assert buf.seconds == pytest.approx(0.5)


def test_playback_stall_accounting():
    buf = PlaybackBuffer()
    buf.add_segment(1.0)
    stalled = buf.play(3.0)
    assert stalled == pytest.approx(2.0)
    assert buf.stall_events == 1
    assert buf.total_stall_s == pytest.approx(2.0)
    assert buf.is_empty


def test_playback_stall_event_counted_once_per_gap():
    buf = PlaybackBuffer()
    buf.play(1.0)   # stall begins
    buf.play(1.0)   # still the same stall
    assert buf.stall_events == 1
    buf.add_segment(1.0)
    buf.play(2.0)   # drains then stalls again
    assert buf.stall_events == 2
    assert buf.total_stall_s == pytest.approx(3.0)


def test_playback_validation():
    buf = PlaybackBuffer()
    with pytest.raises(ValueError):
        buf.add_segment(0.0)
    with pytest.raises(ValueError):
        buf.play(-1.0)


@given(st.lists(st.tuples(st.floats(min_value=0.01, max_value=5.0),
                          st.floats(min_value=0.0, max_value=5.0)),
                min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_playback_conservation(steps):
    """Video added = video played + video buffered; stalls only when empty."""
    buf = PlaybackBuffer()
    added = 0.0
    requested = 0.0
    for segment, play in steps:
        buf.add_segment(segment)
        added += segment
        buf.play(play)
        requested += play
    played = requested - buf.total_stall_s
    assert added == pytest.approx(played + buf.seconds, rel=1e-9, abs=1e-9)
    assert buf.seconds >= 0
    assert buf.total_stall_s >= 0
