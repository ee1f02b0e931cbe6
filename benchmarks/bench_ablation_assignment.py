"""Ablation: server-assignment strategies for in-game interactions.

Compares four ways of placing players on a datacenter's servers:
random (the baseline), kd-tree spatial regions over avatar positions
(the conventional MMOG approach the paper contrasts in §2, Bezerra et
al. [13]), the paper's §3.4 social seed-and-swap, and the networkx CNM
reference.  Avatars of friends are placed near each other in the world
(friends party together), so the spatial baseline captures part of the
social structure.

Expected cross-server interaction ordering:
random > spatial kd-tree > social (paper) >= CNM reference, with the
kd-tree keeping the best load balance (its design goal).
"""

import numpy as np
import pytest

from repro.cloud.datacenter import Datacenter
from repro.cloud.regions import KdTreePartitioner
from repro.metrics.tables import ResultTable
from repro.social.communities import (
    greedy_modularity_reference,
    paper_partition,
    random_partition,
)
from repro.social.graph import generate_friend_graph

pytest.importorskip(
    "networkx", reason="the networkx CNM reference needs the 'ablation' "
    "extra: pip install -e '.[ablation]'")


def _friend_correlated_positions(graph, rng, world_size=1000.0,
                                 party_spread=15.0):
    """Avatar positions where friend groups party together."""
    positions = np.full((graph.num_players, 2), np.nan)
    for player in range(graph.num_players):
        if not np.isnan(positions[player, 0]):
            continue
        anchor = rng.uniform(0, world_size, size=2)
        positions[player] = anchor
        for friend in graph.friends(player):
            if np.isnan(positions[friend, 0]):
                positions[friend] = anchor + rng.normal(
                    0, party_spread, size=2)
    return np.clip(positions, 0, world_size)


def _evaluate(graph, assignment, z):
    datacenter = Datacenter(0, num_servers=z)
    datacenter.assign_partition(assignment)
    interactions = list(graph.edges())
    counts = np.bincount(
        [assignment[p] % z for p in range(graph.num_players)], minlength=z)
    balance = counts.max() / counts.mean() if counts.mean() > 0 else 1.0
    return (datacenter.cross_server_fraction(interactions),
            datacenter.mean_interaction_latency_ms(interactions),
            float(balance))


def run_ablation(num_players: int = 500, z: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    graph = generate_friend_graph(rng, num_players)
    positions = _friend_correlated_positions(graph, rng)

    strategies = {
        "random": random_partition(graph.num_players, z, np.random.default_rng(seed + 1)),
        "kd-tree spatial": KdTreePartitioner(z).fit(positions).assign(
            positions),
        "social (paper)": paper_partition(
            graph, z, np.random.default_rng(seed + 1), h1=300, h2=30),
        "CNM reference": greedy_modularity_reference(graph, z),
    }
    table = ResultTable(
        title="Ablation: server-assignment strategies",
        columns=["strategy", "cross_server", "server_latency_ms",
                 "load_imbalance"])
    for name, assignment in strategies.items():
        cross, latency, balance = _evaluate(graph, assignment, z)
        table.add_row(name, cross, latency, balance)
    return table


def test_ablation_assignment(benchmark, emit):
    table = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(table, "ablation_assignment.txt")
    rows = {row[0]: row for row in table.rows}
    # Spatial partitioning beats random on cross-server interactions
    # (friends party together in the world)...
    assert rows["kd-tree spatial"][1] < rows["random"][1]
    # ...and the social strategies beat random too.
    assert rows["social (paper)"][1] < rows["random"][1]
    assert rows["CNM reference"][1] < rows["random"][1]
    # The kd-tree keeps good load balance — its design goal [13].
    assert rows["kd-tree spatial"][3] < 2.0
    # Lower cross-server share means lower server latency.
    assert rows["CNM reference"][2] < rows["random"][2]
