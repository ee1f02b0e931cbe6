"""Tests for dynamic supernode provisioning (§3.5, Eqs. 15-16)."""

import numpy as np
import pytest

from repro.core.columns import SupernodePool
from repro.core.provisioning import (
    Provisioner,
    rank_preference_selection,
    required_supernodes,
)


def test_eq15_required_supernodes():
    # (1 + 0.2) * 100 / 5 = 24.
    assert required_supernodes(100, 5.0, epsilon=0.2) == 24
    # Ceiling behaviour.
    assert required_supernodes(101, 5.0, epsilon=0.2) == 25
    assert required_supernodes(0, 5.0) == 0


def test_eq15_validation():
    with pytest.raises(ValueError):
        required_supernodes(-1, 5.0)
    with pytest.raises(ValueError):
        required_supernodes(10, 0.0)
    with pytest.raises(ValueError):
        required_supernodes(10, 5.0, epsilon=-0.1)


def test_eq16_rank_preference_favours_top_ranks():
    rng = np.random.default_rng(0)
    counts = {i: 0 for i in range(10)}
    for _ in range(2000):
        picked = rank_preference_selection(list(range(10)), 3, rng)
        for candidate in picked:
            counts[candidate] += 1
    # 1/j weights: rank 1 picked far more often than rank 10.
    assert counts[0] > 2 * counts[9]
    assert counts[0] > counts[4] > counts[9]


def test_eq16_selects_without_replacement():
    rng = np.random.default_rng(0)
    picked = rank_preference_selection(list(range(5)), 5, rng)
    assert sorted(picked) == [0, 1, 2, 3, 4]
    picked = rank_preference_selection(list(range(5)), 9, rng)
    assert sorted(picked) == [0, 1, 2, 3, 4]


def test_eq16_validation():
    with pytest.raises(ValueError):
        rank_preference_selection([1, 2], -1, np.random.default_rng(0))
    assert rank_preference_selection([], 0, np.random.default_rng(0)) == []


def test_provisioner_window_arithmetic():
    provisioner = Provisioner(average_capacity=5.0, window_hours=4)
    assert provisioner.windows_per_week == 42
    with pytest.raises(ValueError):
        Provisioner(average_capacity=5.0, window_hours=5)  # 5 does not divide 24


def test_provisioner_becomes_ready_after_one_season():
    provisioner = Provisioner(average_capacity=5.0, window_hours=12)
    season = provisioner.windows_per_week
    for i in range(season + 1):
        provisioner.observe(100.0 + (i % 2) * 20)
    assert provisioner.ready


def test_provisioner_target_tracks_periodic_demand():
    """On a perfectly weekly pattern the target follows Eq. 15 exactly."""
    provisioner = Provisioner(average_capacity=5.0, epsilon=0.2,
                              window_hours=12, theta=0.0, seasonal_theta=0.0)
    season = provisioner.windows_per_week
    pattern = [100.0 if i % 2 == 0 else 300.0 for i in range(3 * season)]
    for value in pattern:
        provisioner.observe(value)
    # Next window is an even index -> forecast 100 -> (1.2*100)/5 = 24.
    assert provisioner.target_supernodes() == 24


def test_provisioner_minimum_floor():
    provisioner = Provisioner(average_capacity=5.0, minimum_supernodes=3,
                              window_hours=12, theta=0.0, seasonal_theta=0.0)
    for _ in range(provisioner.windows_per_week + 2):
        provisioner.observe(0.0)
    assert provisioner.target_supernodes() == 3


def make_pool(supported):
    size = len(supported)
    pool = SupernodePool(
        host_player=list(range(size)), capacity=[5] * size,
        upload_mbps=[10.0] * size, access_ms=[4.0] * size)
    pool.supported_total[:] = supported
    return pool


def test_choose_deployment_prefers_busy_supernodes():
    """§3.5: supernodes that supported many players get redeployed."""
    provisioner = Provisioner(average_capacity=5.0)
    pool = make_pool([100 - i * 10 for i in range(8)])
    rng = np.random.default_rng(0)
    counts = {i: 0 for i in range(8)}
    for _ in range(500):
        for sid in provisioner.choose_deployment(pool, 3, rng):
            counts[sid] += 1
    assert counts[0] > counts[7]
    assert counts[0] > counts[4]
