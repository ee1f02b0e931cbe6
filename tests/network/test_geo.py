"""Tests for the geographic substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.geo import (
    US_REGION,
    GeoPoint,
    Metro,
    Region,
    pairwise_distances,
    place_datacenters,
)


def test_geopoint_distance():
    assert GeoPoint(0, 0).distance_to(GeoPoint(3, 4)) == pytest.approx(5.0)


def test_metro_validation():
    with pytest.raises(ValueError):
        Metro("bad", GeoPoint(0, 0), weight=0)
    with pytest.raises(ValueError):
        Metro("bad", GeoPoint(0, 0), weight=1, spread_km=0)


def test_region_rejects_outside_metros():
    with pytest.raises(ValueError):
        Region(100, 100, [Metro("far", GeoPoint(500, 0), 1.0)])


def test_region_requires_metros():
    with pytest.raises(ValueError):
        Region(100, 100, [])


def test_us_region_has_many_metros():
    assert len(US_REGION.metros) >= 20
    assert US_REGION.width_km == 4000.0
    assert US_REGION.height_km == 2500.0


def test_sample_points_shape_and_bounds():
    rng = np.random.default_rng(0)
    points = US_REGION.sample_points(rng, 1000)
    assert points.shape == (1000, 2)
    assert np.all(points[:, 0] >= 0) and np.all(points[:, 0] <= 4000)
    assert np.all(points[:, 1] >= 0) and np.all(points[:, 1] <= 2500)


def test_sample_points_zero():
    rng = np.random.default_rng(0)
    assert US_REGION.sample_points(rng, 0).shape == (0, 2)
    with pytest.raises(ValueError):
        US_REGION.sample_points(rng, -1)


def test_sample_points_cluster_around_metros():
    """Most sampled points lie within a few spreads of some metro."""
    rng = np.random.default_rng(0)
    points = US_REGION.sample_points(rng, 2000)
    centers = np.array([[m.center.x_km, m.center.y_km] for m in US_REGION.metros])
    distances = pairwise_distances(points, centers).min(axis=1)
    assert np.mean(distances < 300) > 0.95


def test_place_datacenters_deterministic_and_spread():
    a = place_datacenters(US_REGION, 5)
    b = place_datacenters(US_REGION, 5)
    assert np.array_equal(a, b)
    # Dispersion: any two of the five sites are far apart.
    dists = pairwise_distances(a, a)
    np.fill_diagonal(dists, np.inf)
    assert dists.min() > 500


def test_place_datacenters_first_site_anchors_east():
    """The first site follows the us-east pattern: eastern interior."""
    sites = place_datacenters(US_REGION, 1)
    assert sites[0][0] > US_REGION.width_km * 0.6


def test_place_datacenters_sites_are_not_metro_cores():
    """Datacenters sit at cheap-land grid sites, away from metro cores."""
    sites = place_datacenters(US_REGION, 5)
    centers = np.array([[m.center.x_km, m.center.y_km]
                        for m in US_REGION.metros])
    nearest_metro = pairwise_distances(sites, centers).min(axis=1)
    assert np.all(nearest_metro > 30.0)


def test_place_datacenters_large_count_uses_midpoints():
    sites = place_datacenters(US_REGION, 40)
    assert sites.shape == (40, 2)
    assert np.all(sites[:, 0] <= US_REGION.width_km)
    assert np.all(sites[:, 1] <= US_REGION.height_km)


def test_place_datacenters_invalid_count():
    with pytest.raises(ValueError):
        place_datacenters(US_REGION, 0)


def test_pairwise_distances_matches_manual():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0]])
    expected = np.array([[5.0], [np.hypot(2.0, 3.0)]])
    assert np.allclose(pairwise_distances(a, b), expected)


def test_pairwise_distances_requires_2d():
    with pytest.raises(ValueError):
        pairwise_distances(np.zeros(3), np.zeros((2, 2)))


@given(count=st.integers(min_value=1, max_value=30))  # grid+midpoints >= 59 sites
@settings(max_examples=30, deadline=None)
def test_property_datacenter_count_honoured(count):
    sites = place_datacenters(US_REGION, count)
    assert sites.shape == (count, 2)
    # Sites never repeat.
    assert len({(x, y) for x, y in sites}) == count
