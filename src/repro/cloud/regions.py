"""kd-tree region partitioning of the virtual world.

The conventional MMOG server-assignment baseline the paper builds on
(§2, Bezerra et al. [13]): "a kd-tree mechanism to partition the game
environment into regions, and perform load balancing among multiple
servers based on the distribution of avatars in the virtual world."

Each leaf of the kd-tree is one region, assigned to one server; splits
alternate axes and cut at the median avatar coordinate, so every region
holds a near-equal avatar share regardless of how players cluster.
CloudFog's §3.4 social assignment is evaluated against this spatial
baseline in the assignment ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Region2D", "KdTreePartitioner"]


@dataclass(frozen=True)
class Region2D:
    """An axis-aligned region of the world assigned to one server."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    server: int

    def __post_init__(self) -> None:
        if self.x_min > self.x_max or self.y_min > self.y_max:
            raise ValueError("region bounds are inverted")

    def contains(self, x: float, y: float) -> bool:
        return (self.x_min <= x <= self.x_max
                and self.y_min <= y <= self.y_max)


class KdTreePartitioner:
    """Median-split kd-tree over avatar positions."""

    def __init__(self, num_regions: int) -> None:
        if num_regions < 1:
            raise ValueError("num_regions must be >= 1")
        self.num_regions = num_regions
        self.regions: list[Region2D] = []

    def fit(self, positions: np.ndarray) -> "KdTreePartitioner":
        """Build regions from an (n, 2) array of avatar positions.

        Splits the densest-population region first (largest avatar
        count), cutting at the median along the region's wider axis —
        the [13] load-balancing rule.
        """
        positions = np.asarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 2:
            raise ValueError("positions must be (n, 2)")
        if len(positions) == 0:
            raise ValueError("cannot fit a kd-tree on zero avatars")

        pad = 1.0
        bounds = (float(positions[:, 0].min()) - pad,
                  float(positions[:, 0].max()) + pad,
                  float(positions[:, 1].min()) - pad,
                  float(positions[:, 1].max()) + pad)
        # Leaves: (bounds, member index array).
        leaves: list[tuple[tuple[float, float, float, float], np.ndarray]]
        leaves = [(bounds, np.arange(len(positions)))]

        while len(leaves) < self.num_regions:
            # Split the most populated leaf.
            index = max(range(len(leaves)), key=lambda i: len(leaves[i][1]))
            (x0, x1, y0, y1), members = leaves.pop(index)
            if len(members) < 2:
                leaves.append(((x0, x1, y0, y1), members))
                break
            axis = 0 if (x1 - x0) >= (y1 - y0) else 1
            values = positions[members, axis]
            cut = float(np.median(values))
            left = members[values <= cut]
            right = members[values > cut]
            if len(left) == 0 or len(right) == 0:
                # Degenerate (identical coordinates): split arbitrarily.
                half = len(members) // 2
                left, right = members[:half], members[half:]
            if axis == 0:
                leaves.append((((x0, cut, y0, y1)), left))
                leaves.append((((cut, x1, y0, y1)), right))
            else:
                leaves.append((((x0, x1, y0, cut)), left))
                leaves.append((((x0, x1, cut, y1)), right))

        self.regions = [
            Region2D(x0, x1, y0, y1, server)
            for server, ((x0, x1, y0, y1), _) in enumerate(leaves)]
        return self

    def server_of(self, x: float, y: float) -> int:
        """Server owning a world position (nearest region on a miss)."""
        if not self.regions:
            raise RuntimeError("partitioner has not been fitted")
        for region in self.regions:
            if region.contains(x, y):
                return region.server
        # Outside every region (moved past the fitted bounds): nearest
        # region centre.
        centers = np.array([[(r.x_min + r.x_max) / 2,
                             (r.y_min + r.y_max) / 2]
                            for r in self.regions])
        deltas = centers - np.array([x, y])
        return self.regions[int(np.argmin((deltas ** 2).sum(axis=1)))].server

    def assign(self, positions: np.ndarray) -> dict[int, int]:
        """Player index -> server for an (n, 2) position array."""
        positions = np.asarray(positions, dtype=np.float64)
        return {i: self.server_of(float(x), float(y))
                for i, (x, y) in enumerate(positions)}
