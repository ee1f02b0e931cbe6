"""Tests for the supernode table's rows: validation and mutations."""

import numpy as np
import pytest

from repro.core.columns import SupernodePool


def make_pool(size=1, capacity=4, upload_mbps=10.0, access_ms=5.0,
              **columns):
    return SupernodePool(
        host_player=list(range(1, size + 1)), capacity=[capacity] * size,
        upload_mbps=[upload_mbps] * size, access_ms=[access_ms] * size,
        **columns)


def test_validation():
    """The whole batch is checked; the first bad row is named."""
    good = {"capacity": 4, "upload_mbps": 10.0, "access_ms": 5.0,
            "throttle_class": 1.0}
    for column, value, message in [
            ("capacity", 0, "supernode 2: capacity must be >= 1, got 0"),
            ("upload_mbps", 0.0, "supernode 2: upload_mbps must be "
                                 "positive"),
            ("access_ms", -1.0, "supernode 2: access_ms must be "
                                "non-negative"),
            ("throttle_class", 0.0, "supernode 2: throttle_class must "
                                    "be in")]:
        columns = {name: [good[name]] * 4 for name in good}
        columns[column][2] = columns[column][3] = value
        with pytest.raises(ValueError, match=message):
            SupernodePool(host_player=[0, 1, 2, 3], **columns)


def test_columns_must_align():
    with pytest.raises(ValueError, match="every column needs 2 rows"):
        SupernodePool([0, 1], [4, 4], [10.0], [5.0, 5.0])


def test_connect_up_to_capacity():
    pool = make_pool(capacity=2)
    pool.connect(0, 10)
    pool.connect(0, 11)
    assert len(pool.connected[0]) == 2
    assert not pool.available[0]
    with pytest.raises(RuntimeError, match="at capacity"):
        pool.connect(0, 12)


def test_duplicate_connect_rejected():
    pool = make_pool()
    pool.connect(0, 10)
    with pytest.raises(ValueError):
        pool.connect(0, 10)


def test_connect_counts_supported_total():
    pool = make_pool()
    pool.connect(0, 1)
    pool.disconnect_many(0, [1])
    pool.connect(0, 1)
    assert pool.supported_total[0] == 2


def test_throttling_keeps_advertised_capacity():
    """§4.1 throttlers cut upload, not the slots they advertise."""
    pool = make_pool(capacity=10, throttle_class=[0.5])
    pool.roll_throttle(np.random.default_rng(0), probability=1.0)
    assert pool.throttle[0] == 0.5
    assert pool.capacity[0] == 10
    for player in range(10):
        pool.connect(0, player)
    assert not pool.available[0]


def test_fail_returns_orphans_and_goes_offline():
    pool = make_pool()
    pool.connect(0, 1)
    pool.connect(0, 2)
    orphans = pool.fail(0)
    assert orphans == {1, 2}
    assert not pool.online[0]
    assert not pool.connected[0]
    assert not pool.available[0]
    with pytest.raises(RuntimeError, match="offline"):
        pool.connect(0, 3)


def test_set_online_keeps_connections_and_refreshes_availability():
    pool = make_pool(size=2, capacity=1)
    pool.connect(0, 7)
    pool.set_online([0, 1], False)
    assert pool.connected[0] == {7}
    assert bytes(pool.available) == b"\x00\x00"
    pool.set_online([0, 1], True)
    assert bytes(pool.available) == b"\x00\x01"  # row 0 is full


def test_roll_throttle_honest_class_never_throttles():
    pool = make_pool()
    rng = np.random.default_rng(0)
    for _ in range(50):
        pool.roll_throttle(rng, probability=1.0)
        assert pool.throttle[0] == 1.0


def test_roll_throttle_misbehaver_follows_probability():
    """§4.1: designated supernodes throttle with probability 0.5."""
    pool = make_pool(throttle_class=[0.5])
    rng = np.random.default_rng(0)
    throttled = 0
    for _ in range(2000):
        pool.roll_throttle(rng, probability=0.5)
        if pool.throttle[0] == 0.5:
            throttled += 1
    assert abs(throttled / 2000 - 0.5) < 0.05


def test_roll_throttle_validation():
    pool = make_pool()
    with pytest.raises(ValueError):
        pool.roll_throttle(np.random.default_rng(0), probability=1.5)
