"""Tests for the static coverage experiments (Figs. 4-5)."""

import numpy as np
import pytest

from repro.experiments.coverage import (
    PAPER_LATENCY_REQUIREMENTS_MS,
    coverage_by_datacenters,
    coverage_by_supernode_hosts,
)
from repro.network.topology import build_topology


@pytest.fixture(scope="module")
def topology():
    return build_topology(np.random.default_rng(0), num_players=800,
                          num_datacenters=5)


def random_hosts(topology, count, rng):
    """Fig. 4(b)/5(b): ``count`` supernodes at randomly drawn players."""
    return rng.choice(topology.num_players, size=count, replace=False)


def test_requirement_series_matches_figures():
    assert PAPER_LATENCY_REQUIREMENTS_MS == (30.0, 50.0, 70.0, 90.0, 110.0)


def test_more_datacenters_cover_more(topology):
    few = coverage_by_datacenters(topology, 2, 90.0)
    many = coverage_by_datacenters(topology, 20, 90.0)
    assert many >= few


def test_stricter_requirement_covers_fewer(topology):
    strict = coverage_by_datacenters(topology, 5, 30.0)
    lenient = coverage_by_datacenters(topology, 5, 110.0)
    assert strict < lenient


def test_coverage_is_a_ratio(topology):
    value = coverage_by_datacenters(topology, 5, 90.0)
    assert 0.0 <= value <= 1.0


def test_supernode_coverage_grows_with_count(topology):
    rng_few = np.random.default_rng(1)
    rng_many = np.random.default_rng(1)
    few = coverage_by_supernode_hosts(
        topology, random_hosts(topology, 10, rng_few), 70.0)
    many = coverage_by_supernode_hosts(
        topology, random_hosts(topology, 200, rng_many), 70.0)
    assert many > few


def test_zero_supernodes_cover_nothing(topology):
    assert coverage_by_supernode_hosts(topology, np.array([], dtype=int),
                                       90.0) == 0.0


def test_supernode_hosts_prefix_monotone(topology):
    """Nested host prefixes can only add coverage."""
    hosts = np.arange(100)
    small = coverage_by_supernode_hosts(topology, hosts[:10], 70.0)
    large = coverage_by_supernode_hosts(topology, hosts, 70.0)
    assert large >= small


def test_validation(topology):
    with pytest.raises(ValueError):
        coverage_by_datacenters(topology, 0, 90.0)
    with pytest.raises(ValueError):
        coverage_by_supernode_hosts(topology, np.array([0]), -5.0)


def test_supernodes_beat_datacenters_at_strict_budgets(topology):
    """The paper's core coverage claim: fog sites sit near players."""
    rng = np.random.default_rng(2)
    sn = coverage_by_supernode_hosts(topology, random_hosts(topology, 60, rng),
                                     30.0)
    dc = coverage_by_datacenters(topology, 5, 30.0)
    assert sn > dc
