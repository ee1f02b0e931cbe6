"""Frozen oracle: the per-player distance and latency helpers of the topology.

Verbatim copies, taken when they left ``repro.network.topology``, of
the scalar ``Topology`` methods ``nearest_datacenter``,
``player_distance``, ``player_to_datacenter_one_way_ms``,
``nearest_datacenter_one_way_ms`` and ``player_to_player_one_way_ms``,
written as functions of the topology.  A run reads the vectorised forms
(``Topology.player_datacenter_distances``,
``Topology.players_to_points_one_way_ms`` and the ``SimState.cloud_ms``
column); these one-pair formulas are what the tests compare them
against.  Do not edit this file to follow the live code.
"""

from __future__ import annotations

import numpy as np

from repro.network.topology import Topology


def nearest_datacenter(topology: Topology, player: int) -> tuple[int, float]:
    """(datacenter index, distance km) nearest to ``player``."""
    distances = topology.player_datacenter_distances()[player]
    index = int(np.argmin(distances))
    return index, float(distances[index])


def player_distance(topology: Topology, a: int, b: int) -> float:
    """Distance in km between two players."""
    delta = topology.player_coords[a] - topology.player_coords[b]
    return float(np.sqrt((delta ** 2).sum()))


def player_to_datacenter_one_way_ms(topology: Topology, player: int,
                                    datacenter: int) -> float:
    distance = topology.player_datacenter_distances()[player, datacenter]
    return float(topology.latency_model.one_way_ms(
        distance,
        topology.player_access_ms[player],
        topology.latency_model.datacenter_access_ms))


def nearest_datacenter_one_way_ms(topology: Topology, player: int) -> float:
    distances = topology.player_datacenter_distances()[player]
    one_ways = topology.latency_model.one_way_ms(
        distances,
        topology.player_access_ms[player],
        topology.latency_model.datacenter_access_ms)
    return float(np.min(one_ways))


def player_to_player_one_way_ms(topology: Topology, a: int, b: int) -> float:
    return topology.latency_model.point_one_way_ms(
        float(topology.player_coords[a, 0]), float(topology.player_coords[a, 1]),
        float(topology.player_coords[b, 0]), float(topology.player_coords[b, 1]),
        topology.player_access_ms[a], topology.player_access_ms[b])
