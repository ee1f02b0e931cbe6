"""Geographic substrate: regions, metro clusters and node placement.

The paper locates players, supernodes and datacenters in (US-scale)
geography: supernode/datacenter distance to a player drives the
propagation part of response latency, "the density of players in each
area tends to be stable" (§3.5), and the cloud picks "physically close"
supernode candidates from node coordinates derived from IP addresses
(§3.2.1).

We model geography as a 2-D plane (kilometres) populated by a mixture of
metro clusters: a player's location is a Gaussian draw around a
weight-sampled metro centre.  Datacenters are placed by greedy max-min
dispersion over the highest-weight metros, mirroring how a provider
spreads a small number of sites across the country.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GeoPoint",
    "Metro",
    "Region",
    "US_REGION",
    "place_datacenters",
    "pairwise_distances",
]


@dataclass(frozen=True)
class GeoPoint:
    """A position on the plane, in kilometres."""

    x_km: float
    y_km: float

    def distance_to(self, other: "GeoPoint") -> float:
        """Euclidean distance in kilometres."""
        return math.hypot(self.x_km - other.x_km, self.y_km - other.y_km)


@dataclass(frozen=True)
class Metro:
    """A population cluster: centre, relative weight, spatial spread."""

    name: str
    center: GeoPoint
    weight: float
    spread_km: float = 80.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"metro weight must be positive, got {self.weight}")
        if self.spread_km <= 0:
            raise ValueError(f"metro spread must be positive, got {self.spread_km}")


class Region:
    """A rectangular region populated by metro clusters."""

    def __init__(self, width_km: float, height_km: float,
                 metros: Sequence[Metro]) -> None:
        if width_km <= 0 or height_km <= 0:
            raise ValueError("region dimensions must be positive")
        if not metros:
            raise ValueError("a region needs at least one metro")
        for metro in metros:
            if not (0 <= metro.center.x_km <= width_km
                    and 0 <= metro.center.y_km <= height_km):
                raise ValueError(f"metro {metro.name!r} lies outside the region")
        self.width_km = float(width_km)
        self.height_km = float(height_km)
        self.metros = list(metros)
        weights = np.array([m.weight for m in self.metros], dtype=np.float64)
        self._metro_probs = weights / weights.sum()

    def sample_points(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Sample ``n`` locations as an (n, 2) array of kilometres.

        Each point picks a metro by weight and scatters Gaussianly around
        its centre, clipped into the region (players live near cities but
        not outside the map).
        """
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n == 0:
            return np.empty((0, 2), dtype=np.float64)
        metro_ids = rng.choice(len(self.metros), size=n, p=self._metro_probs)
        centers = np.array([[m.center.x_km, m.center.y_km] for m in self.metros])
        spreads = np.array([m.spread_km for m in self.metros])
        points = centers[metro_ids] + rng.normal(
            0.0, 1.0, size=(n, 2)) * spreads[metro_ids, None]
        points[:, 0] = np.clip(points[:, 0], 0.0, self.width_km)
        points[:, 1] = np.clip(points[:, 1], 0.0, self.height_km)
        return points


def _us_metros() -> list[Metro]:
    """A stylised continental-US metro layout (4000 km x 2500 km plane).

    Positions are scaled from real metro geography; weights are rough
    population shares.  Exact values do not matter for the reproduction —
    only that players cluster in a few dozen far-apart population centres
    so that datacenter count limits coverage, as in Choy et al. [7].
    """
    raw = [
        # name, x, y, weight
        ("NYC", 3650, 1750, 20.0), ("LA", 300, 900, 15.0),
        ("Chicago", 2750, 1800, 10.0), ("Houston", 2350, 600, 7.0),
        ("Phoenix", 750, 850, 5.0), ("Philadelphia", 3600, 1650, 6.0),
        ("SanAntonio", 2250, 550, 3.0), ("SanDiego", 350, 780, 3.5),
        ("Dallas", 2300, 850, 7.0), ("SanJose", 150, 1350, 5.0),
        ("Austin", 2280, 680, 2.5), ("Jacksonville", 3300, 500, 2.0),
        ("Columbus", 3050, 1600, 2.0), ("Charlotte", 3300, 1100, 2.5),
        ("Indianapolis", 2850, 1550, 2.0), ("Seattle", 350, 2300, 4.0),
        ("Denver", 1500, 1400, 3.0), ("Boston", 3800, 1900, 4.5),
        ("Nashville", 2850, 1100, 2.0), ("Portland", 300, 2150, 2.5),
        ("Miami", 3450, 200, 4.0), ("Atlanta", 3100, 900, 4.5),
        ("Minneapolis", 2450, 2050, 3.0), ("SaltLake", 1050, 1500, 1.5),
    ]
    return [Metro(name, GeoPoint(x, y), weight) for name, x, y, weight in raw]


#: Default continental-scale region used by the experiments.
US_REGION = Region(4000.0, 2500.0, _us_metros())


#: Candidate datacenter site grid (columns x rows over the region).
#: Cloud providers build in cheap-land sites, not metro cores — Choy et
#: al. [7] found even 13 EC2 datacenters leave >30 % of users past the
#: 80 ms budget, which only holds when datacenters sit hundreds of km
#: from most players.
_DC_GRID = (7, 5)


def datacenter_candidate_sites(region: Region) -> list[GeoPoint]:
    """The fixed grid of possible datacenter locations for a region."""
    columns, rows = _DC_GRID
    return [GeoPoint(region.width_km * (c + 0.5) / columns,
                     region.height_km * (r + 0.5) / rows)
            for r in range(rows) for c in range(columns)]


def place_datacenters(region: Region, count: int) -> np.ndarray:
    """Place ``count`` datacenters by greedy max-min dispersion.

    Sites come from a fixed grid of cheap-land candidates.  The first
    site anchors at the region's east-coast interior (the us-east
    pattern); each subsequent site maximises its minimum distance to the
    already-chosen set, so coverage grows steadily and deterministically
    with ``count``.  Beyond the grid, extra sites interleave at grid
    midpoints.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    candidates = datacenter_candidate_sites(region)
    # Midpoint sites extend the pool for very large counts.
    columns, rows = _DC_GRID
    candidates += [GeoPoint(region.width_km * c / columns,
                            region.height_km * r / rows)
                   for r in range(1, rows) for c in range(1, columns)]
    anchor = GeoPoint(region.width_km * 0.80, region.height_km * 0.62)
    chosen = [min(candidates, key=lambda p: p.distance_to(anchor))]
    remaining = [p for p in candidates if p is not chosen[0]]
    while remaining and len(chosen) < count:
        best = max(remaining,
                   key=lambda p: min(p.distance_to(c) for c in chosen))
        chosen.append(best)
        remaining.remove(best)
    if len(chosen) < count:
        raise ValueError(
            f"cannot place {count} datacenters: only {len(chosen)} sites")
    return np.array([[p.x_km, p.y_km] for p in chosen[:count]],
                    dtype=np.float64)


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Distance matrix (len(a), len(b)) between two coordinate arrays."""
    points_a = np.asarray(points_a, dtype=np.float64)
    points_b = np.asarray(points_b, dtype=np.float64)
    if points_a.ndim != 2 or points_b.ndim != 2:
        raise ValueError("coordinate arrays must be 2-D (n, 2)")
    deltas = points_a[:, None, :] - points_b[None, :, :]
    return np.sqrt((deltas ** 2).sum(axis=2))
