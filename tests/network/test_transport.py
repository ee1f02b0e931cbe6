"""Tests for the transport / delivery-time model.

A run calls the vectorised ``congestion_factors`` / ``loss_rates``; the
one-value definitions they are pinned against are frozen in
``tests/streaming/session_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.transport import PathSpec, TransportModel

from ..streaming.session_oracle import (
    congestion_factor,
    effective_throughput_mbps,
    loss_rate,
    sample_losses,
    serialization_ms,
)


def make_path(latency=10.0, sender=10.0, receiver=20.0):
    return PathSpec(one_way_latency_ms=latency, sender_share_mbps=sender,
                    receiver_download_mbps=receiver)


def test_pathspec_bottleneck():
    model = TransportModel()
    assert effective_throughput_mbps(
        model, make_path(sender=10.0, receiver=5.0)) == 5.0
    assert effective_throughput_mbps(
        model, make_path(sender=3.0, receiver=5.0)) == 3.0


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
    assert serialization_ms(model, 1_000_000,
                            make_path(sender=10.0, receiver=99.0)) == pytest.approx(100.0)


def test_congestion_factor_idle_is_one():
    model = TransportModel()
    assert congestion_factor(model, 0.0) == 1.0


def test_congestion_factor_monotone_and_capped():
    model = TransportModel(max_congestion_factor=8.0)
    values = [congestion_factor(model, u) for u in [0.0, 0.5, 0.8, 0.95, 1.0, 2.0]]
    assert values == sorted(values)
    assert values[-1] == 8.0
    # M/D/1 waiting factor: 1 + rho / (2 (1 - rho)).
    assert congestion_factor(model, 0.5) == pytest.approx(1.5)
    assert congestion_factor(model, 0.8) == pytest.approx(3.0)


def test_congestion_factor_negative_rejected():
    with pytest.raises(ValueError):
        congestion_factor(TransportModel(), -0.1)


def test_loss_rate_grows_past_85_percent():
    model = TransportModel(base_loss_rate=0.002)
    assert loss_rate(model, 0.5) == pytest.approx(0.002)
    assert loss_rate(model, 0.95) > loss_rate(model, 0.85)
    assert loss_rate(model, 5.0) <= 0.5


def test_sample_losses_rate():
    model = TransportModel(base_loss_rate=0.0)
    rng = np.random.default_rng(0)
    # utilisation 1.0 -> loss = 0.15*0.8 = 0.12
    losses = sample_losses(model, 20000, 1.0, rng)
    assert abs(losses.mean() - loss_rate(model, 1.0)) < 0.01


def test_congested_path_is_slower():
    model = TransportModel(jitter_fraction=0.0)
    path = make_path()
    idle = serialization_ms(model, 1_000_000, path, utilization=0.0)
    busy = serialization_ms(model, 1_000_000, path, utilization=0.9)
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
        serialization_ms(model, -1, path)
    with pytest.raises(ValueError):
        sample_losses(model, -1, 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        loss_rate(model, -0.1)


@given(utilization=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_property_congestion_factor_bounds(utilization):
    model = TransportModel()
    factor = congestion_factor(model, utilization)
    assert 1.0 <= factor <= model.max_congestion_factor


@given(utilization=st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=100, deadline=None)
def test_property_loss_rate_bounds(utilization):
    model = TransportModel()
    assert 0.0 <= loss_rate(model, utilization) <= 0.5


@given(utilization=st.lists(st.floats(min_value=0.0, max_value=3.0),
                            min_size=1, max_size=20),
       max_factor=st.floats(min_value=1.0, max_value=16.0),
       base_loss=st.floats(min_value=0.0, max_value=0.5))
@settings(max_examples=100, deadline=None)
def test_property_vectorised_forms_equal_the_scalar_oracle(
        utilization, max_factor, base_loss):
    """Element for element, bit for bit: the batch estimator relies on it."""
    model = TransportModel(max_congestion_factor=max_factor,
                           base_loss_rate=base_loss)
    values = np.array(utilization)
    assert model.congestion_factors(values).tolist() == [
        congestion_factor(model, u) for u in utilization]
    assert model.loss_rates(values).tolist() == [
        loss_rate(model, u) for u in utilization]
