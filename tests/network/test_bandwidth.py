"""Tests for the bandwidth model."""

import numpy as np
import pytest

from repro.network.bandwidth import (
    UPLOAD_FRACTION,
    BandwidthModel,
    LinkBandwidths,
)


def test_upload_is_one_third_of_download():
    """Paper §4.1: upload capacity = download / 3 [44, 45]."""
    assert UPLOAD_FRACTION == pytest.approx(1.0 / 3.0)
    model = BandwidthModel()
    rng = np.random.default_rng(0)
    links = model.sample_links(rng, 500)
    assert np.allclose(links.upload_mbps, links.download_mbps / 3.0)


def test_sample_links_positive_and_sized():
    model = BandwidthModel()
    rng = np.random.default_rng(0)
    links = model.sample_links(rng, 100)
    assert len(links) == 100
    assert np.all(links.download_mbps > 0)
    assert np.all(links.upload_mbps > 0)


def test_sample_links_zero_and_negative():
    model = BandwidthModel()
    rng = np.random.default_rng(0)
    assert len(model.sample_links(rng, 0)) == 0
    with pytest.raises(ValueError):
        model.sample_links(rng, -1)


def test_download_distribution_has_broadband_tail():
    model = BandwidthModel()
    rng = np.random.default_rng(0)
    links = model.sample_links(rng, 20000)
    # OnLive's 5 Mbit/s recommendation is reachable for a majority but
    # far from everyone (§1 motivates supernodes with exactly this gap).
    share_fast = np.mean(links.download_mbps >= 5.0)
    assert 0.35 < share_fast < 0.85


def test_supernode_capacities_pareto():
    model = BandwidthModel()
    rng = np.random.default_rng(0)
    caps = model.sample_supernode_capacities(rng, 10000)
    assert caps.min() >= 1
    assert caps.max() <= model.supernode_capacity_max
    assert 3.0 < caps.mean() < 7.0  # target mean 5


def test_link_bandwidths_validation():
    with pytest.raises(ValueError):
        LinkBandwidths(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LinkBandwidths(np.array([1.0, -2.0]), np.array([1.0, 1.0]))


def test_model_validation():
    with pytest.raises(ValueError):
        BandwidthModel(upload_fraction=0.0)
    with pytest.raises(ValueError):
        BandwidthModel(upload_fraction=1.5)
    with pytest.raises(ValueError):
        BandwidthModel(supernode_capacity_mean=-1)
