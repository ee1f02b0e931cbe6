"""Ablation: community-clustering algorithms for server assignment.

Compares the paper's greedy seed-and-swap partitioner (§3.4) against a
random assignment and networkx's Clauset-Newman-Moore reference on the
same friendship graphs: modularity (Eq. 13), cross-server interaction
share, and resulting server latency.

Expected: random < paper < CNM on modularity; the paper's algorithm
captures a useful share of the reference's latency reduction at a
fraction of its cost (it was designed for per-week online re-runs).
"""

import time

import numpy as np
import pytest

from repro.cloud.datacenter import Datacenter
from repro.metrics.tables import ResultTable
from repro.social.communities import (
    greedy_modularity_reference,
    modularity,
    paper_partition,
    random_partition,
)
from repro.social.graph import generate_friend_graph

pytest.importorskip(
    "networkx", reason="the networkx CNM reference needs the 'ablation' "
    "extra: pip install -e '.[ablation]'")


def _evaluate(graph, assignment, z):
    datacenter = Datacenter(0, num_servers=z)
    datacenter.assign_partition(assignment)
    interactions = list(graph.edges())
    return (modularity(graph, assignment),
            datacenter.cross_server_fraction(interactions),
            datacenter.mean_interaction_latency_ms(interactions))


def run_ablation(num_players: int = 500, z: int = 10, seed: int = 0):
    rng = np.random.default_rng(seed)
    graph = generate_friend_graph(rng, num_players)
    table = ResultTable(
        title="Ablation: community clustering for server assignment",
        columns=["algorithm", "modularity", "cross_server",
                 "server_latency_ms", "wall_s"])
    algorithms = [
        ("random", lambda: random_partition(
            graph.num_players, z, np.random.default_rng(seed + 1))),
        ("paper h1=100", lambda: paper_partition(
            graph, z, np.random.default_rng(seed + 1), h1=100, h2=10)),
        ("paper h1=400", lambda: paper_partition(
            graph, z, np.random.default_rng(seed + 1), h1=400, h2=40)),
        ("networkx CNM", lambda: greedy_modularity_reference(graph, z)),
    ]
    for name, build in algorithms:
        start = time.perf_counter()
        assignment = build()
        wall = time.perf_counter() - start
        gamma, cross, latency = _evaluate(graph, assignment, z)
        table.add_row(name, gamma, cross, latency, wall)
    return table


def test_ablation_communities(benchmark, emit):
    table = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(table, "ablation_communities.txt")
    rows = {row[0]: row for row in table.rows}
    # Modularity ordering: random < paper < reference.
    assert rows["random"][1] < rows["paper h1=100"][1]
    assert rows["paper h1=100"][1] <= rows["networkx CNM"][1] + 0.02
    # More swap attempts never hurt the paper's algorithm.
    assert rows["paper h1=400"][1] >= rows["paper h1=100"][1] - 1e-9
    # Better modularity -> lower server latency.
    assert rows["networkx CNM"][3] < rows["random"][3]
    assert rows["paper h1=400"][3] < rows["random"][3]
