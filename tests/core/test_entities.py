"""Tests for supernode and connection entities."""

import numpy as np
import pytest

from repro.core.entities import Supernode


def make_supernode(**kwargs):
    defaults = dict(supernode_id=0, host_player=1, capacity=4,
                    upload_mbps=10.0, access_ms=5.0)
    defaults.update(kwargs)
    return Supernode(**defaults)


def test_validation():
    with pytest.raises(ValueError):
        make_supernode(capacity=0)
    with pytest.raises(ValueError):
        make_supernode(upload_mbps=0.0)
    with pytest.raises(ValueError):
        make_supernode(access_ms=-1.0)
    with pytest.raises(ValueError):
        make_supernode(throttle=0.0)


def test_connect_up_to_capacity():
    sn = make_supernode(capacity=2)
    sn.connect(10)
    sn.connect(11)
    assert sn.load == 2
    assert not sn.has_capacity
    with pytest.raises(RuntimeError):
        sn.connect(12)


def test_duplicate_connect_rejected():
    sn = make_supernode()
    sn.connect(10)
    with pytest.raises(ValueError):
        sn.connect(10)


def test_connect_counts_supported_total():
    sn = make_supernode()
    sn.connect(1)
    sn.disconnect(1)
    sn.connect(1)
    assert sn.supported_total == 2


def test_throttling_keeps_advertised_capacity():
    """§4.1 throttlers cut upload, not the slots they advertise."""
    sn = make_supernode(capacity=10)
    sn.throttle = 0.5
    assert sn.effective_capacity == 10
    assert sn.utilization(1.0) == 0.0  # no players yet


def test_utilization_and_share():
    sn = make_supernode(capacity=10, upload_mbps=10.0)
    sn.connect(1)
    sn.connect(2)
    assert sn.utilization(1.0) == pytest.approx(0.2)
    assert sn.upload_share_mbps() == pytest.approx(5.0)
    sn.throttle = 0.5
    assert sn.utilization(1.0) == pytest.approx(0.4)
    with pytest.raises(ValueError):
        sn.utilization(-1.0)


def test_fail_returns_orphans_and_goes_offline():
    sn = make_supernode()
    sn.connect(1)
    sn.connect(2)
    orphans = sn.fail()
    assert orphans == {1, 2}
    assert not sn.online
    assert sn.load == 0
    assert not sn.has_capacity
    with pytest.raises(RuntimeError):
        sn.connect(3)


def test_roll_throttle_honest_class_never_throttles():
    sn = make_supernode()
    rng = np.random.default_rng(0)
    for _ in range(50):
        sn.roll_throttle(rng, probability=1.0)
        assert sn.throttle == 1.0


def test_roll_throttle_misbehaver_follows_probability():
    """§4.1: designated supernodes throttle with probability 0.5."""
    sn = make_supernode()
    sn.throttle_class = 0.5
    rng = np.random.default_rng(0)
    throttled = 0
    for _ in range(2000):
        sn.roll_throttle(rng, probability=0.5)
        if sn.throttle == 0.5:
            throttled += 1
    assert abs(throttled / 2000 - 0.5) < 0.05


def test_roll_throttle_validation():
    sn = make_supernode()
    with pytest.raises(ValueError):
        sn.roll_throttle(np.random.default_rng(0), probability=1.5)


def test_supernode_identity_semantics():
    a = make_supernode()
    b = make_supernode()
    assert a != b  # eq=False: distinct deployments are never equal
    assert a == a

