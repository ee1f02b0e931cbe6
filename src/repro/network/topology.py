"""Topology assembly: a placed, provisioned node population.

Ties the geographic, latency and bandwidth substrates together into one
object the higher layers query: where is every player, which players are
supernode-capable, where are the datacenters, and what is the latency
between any pair of endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandwidth import BandwidthModel, LinkBandwidths
from .geo import Region, US_REGION, pairwise_distances, place_datacenters
from .latency import LatencyModel

__all__ = ["Topology", "build_topology"]


@dataclass
class Topology:
    """A fully materialised network topology.

    Attributes
    ----------
    player_coords:
        (n, 2) player locations in km.
    player_access_ms:
        per-player one-way access delay.
    player_links:
        per-player download/upload capacities.
    datacenter_coords:
        (d, 2) datacenter locations.
    latency_model:
        the shared latency model.
    """

    region: Region
    latency_model: LatencyModel
    player_coords: np.ndarray
    player_access_ms: np.ndarray
    player_links: LinkBandwidths
    datacenter_coords: np.ndarray
    _dc_distance_cache: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.player_coords.shape[0]
        if self.player_access_ms.shape[0] != n or len(self.player_links) != n:
            raise ValueError("player arrays must agree in length")
        if self.player_coords.ndim != 2 or self.player_coords.shape[1] != 2:
            raise ValueError("player_coords must be (n, 2)")

    @property
    def num_players(self) -> int:
        return int(self.player_coords.shape[0])

    @property
    def num_datacenters(self) -> int:
        return int(self.datacenter_coords.shape[0])

    # -- distances --------------------------------------------------------
    def player_datacenter_distances(self) -> np.ndarray:
        """(n, d) distance matrix, cached (used by every coverage sweep)."""
        if self._dc_distance_cache is None or (
                self._dc_distance_cache.shape
                != (self.num_players, self.num_datacenters)):
            self._dc_distance_cache = pairwise_distances(
                self.player_coords, self.datacenter_coords)
        return self._dc_distance_cache

    # -- latencies --------------------------------------------------------
    def players_to_points_one_way_ms(self, players: np.ndarray,
                                     point_coords: np.ndarray,
                                     point_access_ms: np.ndarray) -> np.ndarray:
        """(len(players), len(points)) one-way latency matrix."""
        players = np.asarray(players, dtype=np.int64)
        distances = pairwise_distances(
            self.player_coords[players], point_coords)
        return self.latency_model.one_way_ms(
            distances,
            self.player_access_ms[players][:, None],
            np.asarray(point_access_ms, dtype=np.float64)[None, :])


def build_topology(
    rng: np.random.Generator,
    num_players: int,
    num_datacenters: int,
    region: Region = US_REGION,
    latency_model: LatencyModel | None = None,
    bandwidth_model: BandwidthModel | None = None,
) -> Topology:
    """Sample a complete topology for an experiment run."""
    if num_players <= 0:
        raise ValueError(f"num_players must be positive, got {num_players}")
    if num_datacenters <= 0:
        raise ValueError(f"num_datacenters must be positive, got {num_datacenters}")
    latency_model = latency_model or LatencyModel()
    bandwidth_model = bandwidth_model or BandwidthModel()
    coords = region.sample_points(rng, num_players)
    access = latency_model.sample_access_delays(rng, num_players)
    links = bandwidth_model.sample_links(rng, num_players)
    datacenters = place_datacenters(region, num_datacenters)
    return Topology(
        region=region,
        latency_model=latency_model,
        player_coords=coords,
        player_access_ms=access,
        player_links=links,
        datacenter_coords=datacenters,
    )
