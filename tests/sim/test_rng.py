"""Tests for seeded RNG streams and the paper's sampling helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import (
    EmpiricalDistribution,
    RngFactory,
    pareto_capacities,
    powerlaw_counts,
)


def test_same_seed_and_name_reproduce_stream():
    a = RngFactory(7).stream("latency").random(10)
    b = RngFactory(7).stream("latency").random(10)
    assert np.allclose(a, b)


def test_different_names_give_independent_streams():
    a = RngFactory(7).stream("latency").random(10)
    b = RngFactory(7).stream("arrivals").random(10)
    assert not np.allclose(a, b)


def test_stream_creation_order_is_irrelevant():
    factory1 = RngFactory(3)
    first_then_second = (factory1.stream("x").random(5),
                         factory1.stream("y").random(5))
    factory2 = RngFactory(3)
    second_then_first = (factory2.stream("y").random(5),
                         factory2.stream("x").random(5))
    assert np.allclose(first_then_second[0], second_then_first[1])
    assert np.allclose(first_then_second[1], second_then_first[0])


def test_spawn_derives_distinct_child():
    parent = RngFactory(11)
    child = parent.spawn("rep-0")
    assert child.seed != parent.seed
    assert child.seed == parent.spawn("rep-0").seed


def test_pareto_capacities_mean_and_bounds():
    rng = np.random.default_rng(0)
    caps = pareto_capacities(rng, 20000, mean=5.0, alpha=2.0, minimum=1)
    assert caps.min() >= 1
    assert np.issubdtype(caps.dtype, np.integer)
    # Heavy tail pulls the clipped-and-rounded mean near the target.
    assert 3.5 < caps.mean() < 7.0


def test_pareto_capacities_maximum_clip():
    rng = np.random.default_rng(0)
    caps = pareto_capacities(rng, 5000, mean=5.0, alpha=2.0, maximum=10)
    assert caps.max() <= 10


def test_pareto_capacities_heavy_tail():
    rng = np.random.default_rng(1)
    caps = pareto_capacities(rng, 50000, mean=5.0, alpha=2.0)
    # A Pareto(alpha=2) sample of this size should show a pronounced tail.
    assert caps.max() > 4 * caps.mean()


def test_pareto_capacities_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        pareto_capacities(rng, -1)
    with pytest.raises(ValueError):
        pareto_capacities(rng, 10, alpha=1.0)
    with pytest.raises(ValueError):
        pareto_capacities(rng, 10, mean=0)


def test_powerlaw_counts_skew():
    rng = np.random.default_rng(0)
    counts = powerlaw_counts(rng, 50000, skew=1.5, minimum=1, maximum=200)
    assert counts.min() >= 1
    assert counts.max() <= 200
    # Power-law: the modal value is the minimum, and small values dominate.
    share_small = np.mean(counts <= 3)
    assert share_small > 0.5


def test_powerlaw_counts_invalid_support():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        powerlaw_counts(rng, 10, minimum=0)
    with pytest.raises(ValueError):
        powerlaw_counts(rng, 10, minimum=10, maximum=5)


def test_empirical_distribution_respects_frequencies():
    dist = EmpiricalDistribution([10.0, 100.0], [9.0, 1.0])
    rng = np.random.default_rng(0)
    samples = dist.sample(rng, size=10000)
    assert abs(np.mean(samples == 10.0) - 0.9) < 0.02


def test_empirical_distribution_scalar_sample():
    dist = EmpiricalDistribution([42.0], [1.0])
    rng = np.random.default_rng(0)
    assert dist.sample(rng) == 42.0


def test_empirical_distribution_jitter_stays_nonnegative():
    dist = EmpiricalDistribution([1.0, 2.0], [1.0, 1.0], jitter=4.0)
    rng = np.random.default_rng(0)
    samples = dist.sample(rng, size=1000)
    assert np.all(samples >= 0)


def test_empirical_distribution_mean_and_quantile():
    """Draws follow the bucket weights: mean 22.5, 40 % quantile 20."""
    dist = EmpiricalDistribution([10.0, 20.0, 30.0], [1.0, 1.0, 2.0])
    samples = dist.sample(np.random.default_rng(0), size=20000)
    assert np.mean(samples) == pytest.approx(22.5, rel=0.02)
    assert np.quantile(samples, 0.4) == 20.0
    assert samples.max() == 30.0


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        EmpiricalDistribution([], [])
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.0], [0.0])
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.0], [-1.0])


@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       name=st.text(min_size=1, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_streams_are_deterministic(seed, name):
    a = RngFactory(seed).stream(name).integers(0, 1000, size=5)
    b = RngFactory(seed).stream(name).integers(0, 1000, size=5)
    assert np.array_equal(a, b)


@given(freqs=st.lists(st.floats(min_value=0.01, max_value=10.0),
                      min_size=1, max_size=10))
@settings(max_examples=50, deadline=None)
def test_property_empirical_probabilities_sum_to_one(freqs):
    values = list(range(len(freqs)))
    dist = EmpiricalDistribution(values, freqs)
    assert dist.probabilities.sum() == pytest.approx(1.0)
    assert (dist.probabilities >= 0).all()
