"""Tests for the transport / delivery-time model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.transport import PathSpec, TransportModel


def make_path(latency=10.0, sender=10.0, receiver=20.0):
    return PathSpec(one_way_latency_ms=latency, sender_share_mbps=sender,
                    receiver_download_mbps=receiver)


def test_pathspec_bottleneck():
    model = TransportModel()
    assert model.effective_throughput_mbps(
        make_path(sender=10.0, receiver=5.0)) == 5.0
    assert model.effective_throughput_mbps(
        make_path(sender=3.0, receiver=5.0)) == 3.0


def test_pathspec_validation():
    with pytest.raises(ValueError):
        PathSpec(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PathSpec(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        PathSpec(1.0, 1.0, -2.0)


def test_serialization_time_basic():
    model = TransportModel()
    # 1 Mbit over a 10 Mbit/s bottleneck = 100 ms.
    assert model.serialization_ms(1_000_000, make_path(sender=10.0, receiver=99.0)
                                  ) == pytest.approx(100.0)


def test_congestion_factor_idle_is_one():
    model = TransportModel()
    assert model.congestion_factor(0.0) == 1.0


def test_congestion_factor_monotone_and_capped():
    model = TransportModel(max_congestion_factor=8.0)
    values = [model.congestion_factor(u) for u in [0.0, 0.5, 0.8, 0.95, 1.0, 2.0]]
    assert values == sorted(values)
    assert values[-1] == 8.0
    # M/D/1 waiting factor: 1 + rho / (2 (1 - rho)).
    assert model.congestion_factor(0.5) == pytest.approx(1.5)
    assert model.congestion_factor(0.8) == pytest.approx(3.0)


def test_congestion_factor_negative_rejected():
    with pytest.raises(ValueError):
        TransportModel().congestion_factor(-0.1)


def test_loss_rate_grows_past_85_percent():
    model = TransportModel(base_loss_rate=0.002)
    assert model.loss_rate(0.5) == pytest.approx(0.002)
    assert model.loss_rate(0.95) > model.loss_rate(0.85)
    assert model.loss_rate(5.0) <= 0.5


def test_sample_losses_rate():
    model = TransportModel(base_loss_rate=0.0)
    rng = np.random.default_rng(0)
    # utilisation 1.0 -> loss = 0.15*0.8 = 0.12
    losses = model.sample_losses(20000, 1.0, rng)
    assert abs(losses.mean() - model.loss_rate(1.0)) < 0.01


def test_congested_path_is_slower():
    model = TransportModel(jitter_fraction=0.0)
    path = make_path()
    idle = model.serialization_ms(1_000_000, path, utilization=0.0)
    busy = model.serialization_ms(1_000_000, path, utilization=0.9)
    assert busy > idle


def test_model_validation():
    with pytest.raises(ValueError):
        TransportModel(max_congestion_factor=0.5)
    with pytest.raises(ValueError):
        TransportModel(jitter_fraction=1.0)
    with pytest.raises(ValueError):
        TransportModel(base_loss_rate=1.0)


def test_negative_inputs_rejected():
    model = TransportModel()
    path = make_path()
    with pytest.raises(ValueError):
        model.serialization_ms(-1, path)
    with pytest.raises(ValueError):
        model.sample_losses(-1, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.loss_rate(-0.1)


@given(utilization=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_property_congestion_factor_bounds(utilization):
    model = TransportModel()
    factor = model.congestion_factor(utilization)
    assert 1.0 <= factor <= model.max_congestion_factor


@given(utilization=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_property_loss_rate_bounds(utilization):
    model = TransportModel()
    assert 0.0 <= model.loss_rate(utilization) <= 0.5
