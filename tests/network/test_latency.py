"""Tests for the latency model."""

import numpy as np
import pytest

from repro.network.latency import (
    DEFAULT_ACCESS_TRACE,
    GENERAL_NETWORK_BUDGET_MS,
    GENERAL_RESPONSE_BUDGET_MS,
    LOL_PING_TRACE,
    PLAYOUT_PROCESSING_MS,
    LatencyModel,
)


def test_budget_decomposition_matches_paper():
    """100 ms total = 20 ms playout/processing + 80 ms network (§1)."""
    assert GENERAL_RESPONSE_BUDGET_MS == 100.0
    assert PLAYOUT_PROCESSING_MS == 20.0
    assert GENERAL_NETWORK_BUDGET_MS == 80.0


def test_lol_trace_shape():
    """Most sampled pings sit in the sub-100 ms region with a long tail."""
    rng = np.random.default_rng(0)
    samples = LOL_PING_TRACE.sample(rng, size=20000)
    assert np.mean(samples < 100) > 0.7
    assert samples.max() > 200  # tail exists
    assert samples.min() >= 0


def test_access_trace_mostly_low():
    rng = np.random.default_rng(0)
    samples = DEFAULT_ACCESS_TRACE.sample(rng, size=20000)
    assert np.mean(samples < 20) > 0.6
    assert samples.max() > 60


def test_one_way_combines_components():
    model = LatencyModel(ms_per_km=0.02)
    # 100 km propagation = 2 ms, access 5 + 3.
    assert model.one_way_ms(100.0, 5.0, 3.0) == pytest.approx(10.0)


def test_one_way_vectorised():
    model = LatencyModel(ms_per_km=0.01)
    distances = np.array([0.0, 1000.0])
    result = model.one_way_ms(distances, 5.0, 2.0)
    assert np.allclose(result, [7.0, 17.0])


def test_sample_access_delays():
    model = LatencyModel()
    rng = np.random.default_rng(0)
    delays = model.sample_access_delays(rng, 100)
    assert delays.shape == (100,)
    assert np.all(delays >= 0)
    assert model.sample_access_delays(rng, 0).shape == (0,)
    with pytest.raises(ValueError):
        model.sample_access_delays(rng, -1)


def test_model_validation():
    with pytest.raises(ValueError):
        LatencyModel(ms_per_km=-0.1)
    with pytest.raises(ValueError):
        LatencyModel(datacenter_access_ms=-1)


def test_propagation_scales_linearly():
    model = LatencyModel(ms_per_km=0.015)
    assert model.propagation_ms(2000.0) == pytest.approx(30.0)
    assert model.propagation_ms(0.0) == 0.0
