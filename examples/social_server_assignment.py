"""Social-network based server assignment inside a datacenter (§3.4).

Generates a power-law friendship graph, partitions the players into one
community per server with the paper's greedy seed-and-swap algorithm,
and compares modularity and cross-server interaction latency against a
random assignment and the networkx Clauset–Newman–Moore reference.

Run with::

    python examples/social_server_assignment.py
"""

import numpy as np

from repro.cloud.datacenter import Datacenter
from repro.social.communities import (
    greedy_modularity_reference,
    modularity,
    paper_partition,
    random_partition,
)
from repro.social.graph import generate_friend_graph


def evaluate(name: str, graph, assignment, hop_ms: float = 15.0) -> None:
    datacenter = Datacenter(0, num_servers=max(assignment.values()) + 1,
                            hop_ms=hop_ms)
    datacenter.assign_partition(assignment)
    interactions = list(graph.edges())
    gamma = modularity(graph, assignment)
    cross = datacenter.cross_server_fraction(interactions)
    latency = datacenter.mean_interaction_latency_ms(interactions)
    print(f"  {name:<22} modularity={gamma:>6.3f}  "
          f"cross-server={cross:>5.1%}  server latency={latency:>5.1f} ms")


def main() -> None:
    rng = np.random.default_rng(0)
    graph = generate_friend_graph(rng, 500)
    z = 10  # servers in the datacenter
    print(f"{graph.num_players} players, {graph.num_edges} friendships, "
          f"{z} servers\n")

    random_assign = random_partition(graph.num_players, z, np.random.default_rng(1))
    paper_assign = paper_partition(graph, z, np.random.default_rng(1),
                                   h1=200, h2=20)
    reference = greedy_modularity_reference(graph, z)

    evaluate("random (baseline)", graph, random_assign)
    evaluate("paper seed-and-swap", graph, paper_assign)
    evaluate("networkx CNM (ref)", graph, reference)

    print("\nFriends placed on the same server stop paying the")
    print("inter-server state-exchange round trip — the Fig. 12 effect.")


if __name__ == "__main__":
    main()
