"""Tests for video segments."""

import pytest

from repro.streaming.video import get_level

from .event_session_oracle import DEFAULT_SEGMENT_SECONDS, Segment


def test_default_segment_duration():
    assert DEFAULT_SEGMENT_SECONDS == 1.0


def test_segment_size_follows_bitrate():
    segment = Segment(0, get_level(3), duration_s=1.0)
    assert segment.size_bits == pytest.approx(800_000.0)
    longer = Segment(0, get_level(3), duration_s=2.0)
    assert longer.size_bits == pytest.approx(1_600_000.0)


def test_segment_packets_one_per_frame():
    segment = Segment(0, get_level(2), duration_s=1.0)
    assert segment.packet_count == 30
    half = Segment(0, get_level(2), duration_s=0.5)
    assert half.packet_count == 15


def test_segment_packet_size():
    segment = Segment(0, get_level(1), duration_s=1.0)
    assert segment.packet_size_bits == pytest.approx(300_000.0 / 30)


def test_tiny_segment_has_at_least_one_packet():
    segment = Segment(0, get_level(1), duration_s=0.01)
    assert segment.packet_count == 1


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(-1, get_level(1))
    with pytest.raises(ValueError):
        Segment(0, get_level(1), duration_s=0.0)
