"""Tests for the quality ladder (the paper's Table 2)."""

import pytest

from repro.streaming.video import (
    FRAME_RATE_FPS,
    QUALITY_LADDER,
    QualityLevel,
    adjust_up_factor,
    get_level,
    level_for_latency_requirement,
)


def test_ladder_has_five_levels():
    assert len(QUALITY_LADDER) == 5
    assert [q.level for q in QUALITY_LADDER] == [1, 2, 3, 4, 5]


def test_table2_worked_examples():
    """The §3.3 worked examples pin specific rows of Table 2."""
    # "500 kbps corresponds to 384x216 resolution, and such a segment
    # leads to 50 ms latency".
    level2 = get_level(2)
    assert level2.bitrate_kbps == 500
    assert (level2.width, level2.height) == (384, 216)
    assert level2.latency_requirement_ms == 50.0
    # "a latency requirement of 90 ms [uses] 1200 kbps ... level 4".
    level4 = get_level(4)
    assert level4.bitrate_kbps == 1200
    assert level4.latency_requirement_ms == 90.0
    # Adjust-up example: 800 -> 1200; adjust-down example: 800 -> 500.
    assert get_level(3).bitrate_kbps == 800
    assert get_level(3 + 1).bitrate_kbps == 1200
    assert get_level(3 - 1).bitrate_kbps == 500


def test_ladder_monotone_in_bitrate_and_requirement():
    bitrates = [q.bitrate_kbps for q in QUALITY_LADDER]
    requirements = [q.latency_requirement_ms for q in QUALITY_LADDER]
    tolerances = [q.tolerance for q in QUALITY_LADDER]
    assert bitrates == sorted(bitrates)
    assert requirements == sorted(requirements)
    assert tolerances == sorted(tolerances)


def test_frame_rate_is_30fps():
    assert FRAME_RATE_FPS == 30


def test_get_level_bounds():
    with pytest.raises(ValueError):
        get_level(0)
    with pytest.raises(ValueError):
        get_level(6)


def test_level_for_latency_requirement_examples():
    assert level_for_latency_requirement(90.0).level == 4
    assert level_for_latency_requirement(110.0).level == 5
    assert level_for_latency_requirement(50.0).level == 2
    # Between rungs: pick the highest that fits.
    assert level_for_latency_requirement(85.0).level == 3
    # Stricter than the lowest rung: still serve the lowest level.
    assert level_for_latency_requirement(10.0).level == 1


def test_level_for_latency_requirement_validation():
    with pytest.raises(ValueError):
        level_for_latency_requirement(0)


def test_adjust_up_factor_eq_11():
    """beta = max relative step; for the Table-2 ladder that is 300->500."""
    beta = adjust_up_factor()
    steps = [(500 - 300) / 300, (800 - 500) / 500,
             (1200 - 800) / 800, (1800 - 1200) / 1200]
    assert beta == pytest.approx(max(steps))
    assert beta == pytest.approx(2.0 / 3.0)


def test_adjust_up_factor_needs_two_levels():
    with pytest.raises(ValueError):
        adjust_up_factor([QUALITY_LADDER[0]])


def test_quality_level_validation():
    with pytest.raises(ValueError):
        QualityLevel(0, 100, 100, 500, 50.0, 0.5)
    with pytest.raises(ValueError):
        QualityLevel(1, 100, 100, 0, 50.0, 0.5)
    with pytest.raises(ValueError):
        QualityLevel(1, 100, 100, 500, 50.0, 1.5)


def test_bitrate_bps_conversion():
    assert get_level(1).bitrate_bps == 300_000.0
