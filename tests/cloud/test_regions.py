"""Tests for the kd-tree world partitioner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.regions import KdTreePartitioner, Region2D


def load_balance(tree, positions):
    """Max/mean region load — 1.0 is perfectly balanced."""
    counts = np.bincount(list(tree.assign(positions).values()),
                         minlength=len(tree.regions))
    return float(counts.max() / counts.mean())


def clustered_positions(rng, n=400):
    """Avatars clustered in two hotspots plus sparse background."""
    hot_a = rng.normal([10, 10], 2.0, size=(n // 2, 2))
    hot_b = rng.normal([80, 60], 2.0, size=(n // 3, 2))
    background = rng.uniform([0, 0], [100, 100],
                             size=(n - n // 2 - n // 3, 2))
    return np.vstack([hot_a, hot_b, background])


def test_region_validation():
    with pytest.raises(ValueError):
        Region2D(1.0, 0.0, 0.0, 1.0, 0)
    region = Region2D(0.0, 10.0, 0.0, 10.0, 3)
    assert region.contains(5.0, 5.0)
    assert not region.contains(11.0, 5.0)


def test_partitioner_validation():
    with pytest.raises(ValueError):
        KdTreePartitioner(0)
    with pytest.raises(ValueError):
        KdTreePartitioner(2).fit(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        KdTreePartitioner(2).fit(np.zeros(5))
    with pytest.raises(RuntimeError):
        KdTreePartitioner(2).server_of(0.0, 0.0)


def test_fit_produces_requested_regions():
    rng = np.random.default_rng(0)
    positions = clustered_positions(rng)
    tree = KdTreePartitioner(8).fit(positions)
    assert len(tree.regions) == 8
    assert {r.server for r in tree.regions} == set(range(8))


def test_every_fitted_avatar_lands_in_some_region():
    rng = np.random.default_rng(1)
    positions = clustered_positions(rng)
    tree = KdTreePartitioner(6).fit(positions)
    assignment = tree.assign(positions)
    assert set(assignment) == set(range(len(positions)))
    assert all(0 <= server < 6 for server in assignment.values())


def test_median_splits_balance_clustered_load():
    """The whole point of [13]: hotspots do not overload one server."""
    rng = np.random.default_rng(2)
    positions = clustered_positions(rng, n=600)
    tree = KdTreePartitioner(8).fit(positions)
    assert load_balance(tree, positions) < 1.6


def test_positions_outside_bounds_fall_to_nearest_region():
    rng = np.random.default_rng(3)
    tree = KdTreePartitioner(4).fit(rng.uniform(0, 10, size=(100, 2)))
    server = tree.server_of(1e6, 1e6)
    assert 0 <= server < 4


def test_degenerate_identical_positions():
    positions = np.zeros((10, 2))
    tree = KdTreePartitioner(4).fit(positions)
    assignment = tree.assign(positions)
    assert len(assignment) == 10


def test_single_region_holds_everything():
    rng = np.random.default_rng(4)
    positions = rng.uniform(0, 10, size=(50, 2))
    tree = KdTreePartitioner(1).fit(positions)
    assert len(tree.regions) == 1
    assert load_balance(tree, positions) == 1.0


@given(n=st.integers(min_value=4, max_value=200),
       regions=st.integers(min_value=1, max_value=16),
       seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=50, deadline=None)
def test_property_every_avatar_is_assigned(n, regions, seed):
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0, 100, size=(n, 2))
    tree = KdTreePartitioner(regions).fit(positions)
    assignment = tree.assign(positions)
    assert len(assignment) == n
    servers = {r.server for r in tree.regions}
    assert set(assignment.values()) <= servers
