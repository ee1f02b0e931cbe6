"""Tests for the QoE (MOS) extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.streaming.qoe import QoeModel


@pytest.fixture()
def model():
    return QoeModel()


def test_weights_must_sum_to_one():
    with pytest.raises(ValueError):
        QoeModel(fluency_weight=0.5, fidelity_weight=0.5,
                 responsiveness_weight=0.5)
    with pytest.raises(ValueError):
        QoeModel(fluency_weight=-0.1, fidelity_weight=0.6,
                 responsiveness_weight=0.5)
    with pytest.raises(ValueError):
        QoeModel(latency_hard_factor=1.0)


def test_perfect_session_scores_five(model):
    breakdown = model.mos(continuity=1.0, bitrate_kbps=1800,
                          response_latency_ms=50.0, requirement_ms=110.0)
    assert breakdown.mos == pytest.approx(5.0)


def test_worst_session_scores_one(model):
    breakdown = model.mos(continuity=0.0, bitrate_kbps=300,
                          response_latency_ms=500.0, requirement_ms=110.0)
    assert breakdown.mos == pytest.approx(1.0)


def test_fluency_is_superlinear(model):
    assert model.fluency_score(0.5) == pytest.approx(0.25)
    drop_high = model.fluency_score(1.0) - model.fluency_score(0.9)
    drop_low = model.fluency_score(0.3) - model.fluency_score(0.2)
    assert drop_high > drop_low


def test_fidelity_log_utility(model):
    assert model.fidelity_score(300) == pytest.approx(0.0)
    assert model.fidelity_score(1800) == pytest.approx(1.0)
    mid = model.fidelity_score(800)
    assert 0.4 < mid < 0.7
    with pytest.raises(ValueError):
        model.fidelity_score(0.0)


def test_responsiveness_profile(model):
    assert model.responsiveness_score(50.0, 90.0) == 1.0
    assert model.responsiveness_score(90.0, 90.0) == 1.0
    assert model.responsiveness_score(180.0, 90.0) == 0.0
    assert 0.0 < model.responsiveness_score(135.0, 90.0) < 1.0
    with pytest.raises(ValueError):
        model.responsiveness_score(-1.0, 90.0)
    with pytest.raises(ValueError):
        model.responsiveness_score(50.0, 0.0)


def test_continuity_dominates_default_weights(model):
    """Fluency loss hurts more than fidelity loss (cloud-gaming QoE)."""
    fluent_lowres = model.mos(0.98, 300, 60.0, 90.0).mos
    choppy_highres = model.mos(0.60, 1800, 60.0, 90.0).mos
    assert fluent_lowres > choppy_highres


def test_session_mos_uses_record_fields(model):
    value = model.session_mos(0.9, 80.0, requirement_ms=90.0,
                              bitrate_kbps=800)
    assert 1.0 <= value <= 5.0
    assert value == model.mos(0.9, 800, 80.0, 90.0).mos


@given(continuity=st.floats(min_value=0.0, max_value=1.0),
       bitrate=st.floats(min_value=100.0, max_value=3000.0),
       latency=st.floats(min_value=0.0, max_value=1000.0),
       requirement=st.sampled_from([30.0, 50.0, 70.0, 90.0, 110.0]))
@settings(max_examples=150, deadline=None)
def test_property_mos_bounded(continuity, bitrate, latency, requirement):
    breakdown = QoeModel().mos(continuity, bitrate, latency, requirement)
    assert 1.0 <= breakdown.mos <= 5.0
    assert 0.0 <= breakdown.fluency <= 1.0
    assert 0.0 <= breakdown.fidelity <= 1.0
    assert 0.0 <= breakdown.responsiveness <= 1.0


@given(c1=st.floats(min_value=0.0, max_value=1.0),
       c2=st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=100, deadline=None)
def test_property_mos_monotone_in_continuity(c1, c2):
    model = QoeModel()
    lo, hi = sorted([c1, c2])
    assert (model.mos(lo, 800, 60.0, 90.0).mos
            <= model.mos(hi, 800, 60.0, 90.0).mos + 1e-12)
