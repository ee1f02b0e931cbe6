"""Tests for the cycle-driven (PeerSim-style) schedule."""

import pytest

from repro.sim.cycles import PAPER_SCHEDULE, Schedule


def test_paper_schedule_matches_section_4_1():
    assert PAPER_SCHEDULE.days == 28
    assert PAPER_SCHEDULE.hours_per_day == 24
    assert PAPER_SCHEDULE.warmup_days == 21
    assert PAPER_SCHEDULE.peak_subcycles == (20, 24)
    assert PAPER_SCHEDULE.measured_days == 7


def test_invalid_schedules_rejected():
    with pytest.raises(ValueError):
        Schedule(days=0)
    with pytest.raises(ValueError):
        Schedule(warmup_days=40)
    with pytest.raises(ValueError):
        Schedule(peak_subcycles=(25, 26))
    with pytest.raises(ValueError):
        Schedule(peak_subcycles=(5, 2))
