"""Static user-coverage experiments — Figs. 4 and 5.

"A user is covered by a datacenter or a supernode if the response
latency is no more than the latency requirement of the user's game"
(§4.2).  Coverage is a property of geography and the serving-site set,
so these experiments evaluate it directly on the topology (no day
simulation needed): a player is covered when the *round trip* to its
nearest serving site — the response path when that site both computes
and streams, as in Choy et al.'s datacenter study [7] — fits the game's
network-latency requirement.
"""

from __future__ import annotations

import numpy as np

from ..network.geo import place_datacenters
from ..network.topology import Topology

__all__ = ["coverage_by_datacenters", "coverage_by_supernode_hosts",
           "PAPER_LATENCY_REQUIREMENTS_MS"]

#: The network-latency requirement series of Figs. 4-5 (ms).
PAPER_LATENCY_REQUIREMENTS_MS = (30.0, 50.0, 70.0, 90.0, 110.0)


def _covered_ratio(one_way_ms: np.ndarray, requirement_ms: float) -> float:
    """Share of players whose round trip to the site fits the budget."""
    if requirement_ms <= 0:
        raise ValueError("requirement must be positive")
    return float(np.mean(2.0 * one_way_ms <= requirement_ms))


#: Players per chunk when computing best-site delays; bounds the
#: (chunk x sites) latency matrix so full-paper-scale populations
#: (100 k players x 600 supernodes) fit comfortably in memory.
_COVERAGE_CHUNK = 4096


def _best_one_way(topology: Topology, site_coords: np.ndarray,
                  site_access_ms: np.ndarray) -> np.ndarray:
    best = np.empty(topology.num_players, dtype=np.float64)
    for start in range(0, topology.num_players, _COVERAGE_CHUNK):
        players = np.arange(start, min(start + _COVERAGE_CHUNK,
                                       topology.num_players))
        delays = topology.players_to_points_one_way_ms(
            players, site_coords, site_access_ms)
        best[players] = delays.min(axis=1)
    return best


def coverage_by_datacenters(topology: Topology, num_datacenters: int,
                            requirement_ms: float,
                            datacenter_access_ms: float = 2.0) -> float:
    """Fig. 4(a)/5(a): coverage with ``num_datacenters`` cloud sites."""
    if num_datacenters <= 0:
        raise ValueError("num_datacenters must be positive")
    sites = place_datacenters(topology.region, num_datacenters)
    access = np.full(len(sites), datacenter_access_ms)
    return _covered_ratio(_best_one_way(topology, sites, access),
                          requirement_ms)


def coverage_by_supernode_hosts(topology: Topology, hosts: np.ndarray,
                                requirement_ms: float,
                                supernode_access_cap_ms: float = 8.0
                                ) -> float:
    """Coverage with supernodes at specific player locations.

    Supernodes get the §3.1.1 superior-connection access cap.  An empty
    host set covers nobody.
    """
    hosts = np.asarray(hosts, dtype=np.int64)
    if hosts.size == 0:
        return 0.0
    coords = topology.player_coords[hosts]
    access = np.minimum(topology.player_access_ms[hosts],
                        supernode_access_cap_ms)
    return _covered_ratio(_best_one_way(topology, coords, access),
                          requirement_ms)
