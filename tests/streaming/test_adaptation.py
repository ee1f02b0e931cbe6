"""Tests for the receiver-driven rate controller (Eqs. 10-12)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.video import QualityLevel

from .event_session_oracle import Adjustment, RateController


def make_controller(**kwargs):
    defaults = dict(initial_level=3, tolerance=1.0, theta=1.5, hysteresis=1)
    defaults.update(kwargs)
    return RateController(**defaults)


#: A three-rung ladder with rows distinguishable from Table 2's.
CUSTOM_LADDER = (
    QualityLevel(1, 160, 120, 250, 40.0, 0.5),
    QualityLevel(2, 320, 240, 600, 80.0, 0.75),
    QualityLevel(3, 640, 480, 1500, 120.0, 1.0),
)


def test_thresholds_match_equations():
    ctrl = make_controller(tolerance=1.0)
    assert ctrl.up_threshold == pytest.approx(1.0 + ctrl.beta)
    assert ctrl.down_threshold == pytest.approx(1.5)


def test_tolerance_scales_thresholds():
    """Latency-sensitive games (low rho) need larger buffers (§3.3)."""
    sensitive = make_controller(tolerance=0.6)
    tolerant = make_controller(tolerance=1.0)
    assert sensitive.up_threshold > tolerant.up_threshold
    assert sensitive.down_threshold > tolerant.down_threshold


def test_adjust_up_on_large_buffer():
    ctrl = make_controller()
    result = ctrl.observe(ctrl.up_threshold + 0.5)
    assert result is Adjustment.UP
    assert ctrl.level == 4


def test_adjust_down_on_small_buffer():
    ctrl = make_controller()
    result = ctrl.observe(0.1)
    assert result is Adjustment.DOWN
    assert ctrl.level == 2


def test_no_adjustment_in_dead_zone():
    ctrl = make_controller()
    middle = (ctrl.down_threshold + ctrl.up_threshold) / 2
    assert ctrl.observe(middle) is Adjustment.NONE
    assert ctrl.level == 3


def test_hysteresis_requires_consecutive_estimates():
    """§3.3: adjust only after several consecutive trigger estimates."""
    ctrl = make_controller(hysteresis=3)
    high = ctrl.up_threshold + 1.0
    assert ctrl.observe(high) is Adjustment.NONE
    assert ctrl.observe(high) is Adjustment.NONE
    assert ctrl.observe(high) is Adjustment.UP


def test_hysteresis_reset_by_dead_zone():
    ctrl = make_controller(hysteresis=2)
    high = ctrl.up_threshold + 1.0
    middle = (ctrl.down_threshold + ctrl.up_threshold) / 2
    ctrl.observe(high)
    ctrl.observe(middle)  # streak broken
    assert ctrl.observe(high) is Adjustment.NONE
    assert ctrl.observe(high) is Adjustment.UP


def test_opposite_trigger_resets_streak():
    ctrl = make_controller(hysteresis=2)
    ctrl.observe(ctrl.up_threshold + 1.0)
    ctrl.observe(0.0)  # down trigger resets up streak
    assert ctrl.observe(ctrl.up_threshold + 1.0) is Adjustment.NONE


def test_level_saturates_at_ladder_ends():
    top = make_controller(initial_level=5)
    assert top.observe(top.up_threshold + 1.0) is Adjustment.NONE
    assert top.level == 5
    bottom = make_controller(initial_level=1)
    assert bottom.observe(0.0) is Adjustment.NONE
    assert bottom.level == 1


def test_custom_ladder_quality_resolves_custom_rows():
    """Regression: ``quality`` indexed the global Table 2 ladder even
    when the controller was configured with a custom one."""
    ctrl = make_controller(initial_level=2, ladder=CUSTOM_LADDER)
    assert ctrl.quality is CUSTOM_LADDER[1]
    assert ctrl.quality.bitrate_kbps == 600
    ctrl.observe(ctrl.up_threshold + 1.0)
    assert ctrl.level == 3
    assert ctrl.quality is CUSTOM_LADDER[2]


def test_custom_ladder_validates_initial_level():
    """Regression: a level valid for Table 2 but beyond a shorter custom
    ladder was accepted (then crashed later in ``quality``)."""
    with pytest.raises(ValueError):
        make_controller(initial_level=4, ladder=CUSTOM_LADDER)
    # ...and a longer ladder must accept levels beyond Table 2's range.
    long_ladder = CUSTOM_LADDER + (
        QualityLevel(4, 1280, 720, 2500, 160.0, 1.0),
        QualityLevel(5, 1920, 1080, 4000, 200.0, 1.0),
        QualityLevel(6, 3840, 2160, 8000, 240.0, 1.0),
    )
    ctrl = make_controller(initial_level=6, ladder=long_ladder)
    assert ctrl.quality is long_ladder[5]


def test_saturated_trigger_consumes_streak():
    """Regression: a trigger firing at the ladder boundary left the
    streak saturated, so one post-boundary estimate could adjust
    immediately, bypassing hysteresis."""
    ctrl = make_controller(initial_level=5, hysteresis=3)
    high = ctrl.up_threshold + 1.0
    for _ in range(3):
        ctrl.observe(high)  # third estimate fires at the top: no-op
    assert ctrl.level == 5
    # External drop (e.g. a re-join at a lower level): the next high
    # estimate must start a fresh streak, not fire on the stale one.
    ctrl.level = 3
    assert ctrl.observe(high) is Adjustment.NONE
    assert ctrl.observe(high) is Adjustment.NONE
    assert ctrl.observe(high) is Adjustment.UP
    assert ctrl.level == 4


def test_saturated_down_trigger_consumes_streak():
    ctrl = make_controller(initial_level=1, hysteresis=2)
    ctrl.observe(0.0)
    ctrl.observe(0.0)  # fires at the bottom: no-op, streak consumed
    assert ctrl.level == 1
    ctrl.level = 3
    assert ctrl.observe(0.0) is Adjustment.NONE
    assert ctrl.observe(0.0) is Adjustment.DOWN
    assert ctrl.level == 2


def test_disabled_controller_never_adjusts():
    """Users can disable adaptation and pin the default rate (§3.3)."""
    ctrl = make_controller(enabled=False)
    assert ctrl.observe(100.0) is Adjustment.NONE
    assert ctrl.observe(0.0) is Adjustment.NONE
    assert ctrl.level == 3
    assert ctrl.adjustments == 0


def test_adjustment_counter():
    ctrl = make_controller()
    ctrl.observe(ctrl.up_threshold + 1)
    ctrl.observe(0.0)
    assert ctrl.adjustments == 2


def test_validation():
    with pytest.raises(ValueError):
        make_controller(tolerance=0.0)
    with pytest.raises(ValueError):
        make_controller(theta=0.5)
    with pytest.raises(ValueError):
        make_controller(hysteresis=0)
    with pytest.raises(ValueError):
        make_controller(initial_level=9)
    with pytest.raises(ValueError):
        RateController(initial_level=3).observe(-1.0)


@given(observations=st.lists(st.floats(min_value=0.0, max_value=20.0),
                             min_size=1, max_size=100),
       tolerance=st.sampled_from([0.6, 0.7, 0.8, 0.9, 1.0]),
       hysteresis=st.integers(min_value=1, max_value=5))
@settings(max_examples=100, deadline=None)
def test_property_level_stays_in_ladder(observations, tolerance, hysteresis):
    ctrl = make_controller(tolerance=tolerance, hysteresis=hysteresis)
    for value in observations:
        ctrl.observe(value)
        assert 1 <= ctrl.level <= 5


@given(observations=st.lists(st.floats(min_value=0.0, max_value=0.4),
                             min_size=10, max_size=40))
@settings(max_examples=50, deadline=None)
def test_property_persistent_starvation_reaches_bottom(observations):
    """Sustained low-buffer estimates always drive the level to 1."""
    ctrl = make_controller(initial_level=5, hysteresis=1)
    for value in observations:
        ctrl.observe(value)
    if len(observations) >= 4:
        assert ctrl.level == 1
