"""Tests for friendship graphs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.social.graph import FriendGraph, generate_friend_graph


def test_empty_graph():
    graph = FriendGraph(0)
    assert graph.num_edges == 0
    graph = FriendGraph(5)
    assert graph.friends(0) == set()
    assert graph.degree(3) == 0


def test_add_and_query_friendship():
    graph = FriendGraph(4, edges=[(0, 1), (1, 2)])
    assert 1 in graph.friends(0)
    assert 0 in graph.friends(1)  # undirected
    assert 2 not in graph.friends(0)
    assert graph.friends(1) == {0, 2}
    assert graph.num_edges == 2


def test_duplicate_edge_is_idempotent():
    graph = FriendGraph(3)
    graph.add_friendship(0, 1)
    graph.add_friendship(1, 0)
    assert graph.num_edges == 1


def test_self_friendship_rejected():
    graph = FriendGraph(3)
    with pytest.raises(ValueError):
        graph.add_friendship(1, 1)


def test_out_of_range_players_rejected():
    graph = FriendGraph(3)
    with pytest.raises(ValueError):
        graph.add_friendship(0, 3)
    with pytest.raises(ValueError):
        graph.friends(5)
    with pytest.raises(ValueError):
        FriendGraph(-1)


def test_generate_power_law_degrees():
    rng = np.random.default_rng(0)
    graph = generate_friend_graph(rng, 2000, skew=1.5)
    degrees = [graph.degree(p) for p in range(2000)]
    # Power-law shape: a majority of small-degree players plus a tail.
    assert np.mean(np.asarray(degrees) <= 3) > 0.5
    assert max(degrees) > 10


def test_generate_reproducible():
    a = generate_friend_graph(np.random.default_rng(1), 200)
    b = generate_friend_graph(np.random.default_rng(1), 200)
    assert sorted(a.edges()) == sorted(b.edges())


def test_generate_tiny_populations():
    rng = np.random.default_rng(0)
    assert generate_friend_graph(rng, 0).num_edges == 0
    assert generate_friend_graph(rng, 1).num_edges == 0
    with pytest.raises(ValueError):
        generate_friend_graph(rng, -1)


def test_to_networkx_is_a_copy():
    graph = FriendGraph(3, edges=[(0, 1)])
    nx_graph = graph.to_networkx()
    nx_graph.add_edge(1, 2)
    assert 2 not in graph.friends(1)
    assert graph.num_edges == 1


def test_runs_do_not_import_networkx():
    """networkx serves only the reference ablation (``to_networkx``):
    importing ``repro`` and running a system must never load it."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (
        "import sys\n"
        "import repro\n"
        "from repro import CloudFogSystem, cloudfog_advanced\n"
        "CloudFogSystem(cloudfog_advanced(\n"
        "    num_players=60, num_supernodes=4, seed=1)).run(days=1)\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)}
    completed = subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
