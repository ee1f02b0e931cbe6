"""Bandwidth substrate: node link capacities and supernode capacities.

The paper's settings (§4.1):

* download bandwidth follows the measured residential distributions of
  [42, 43] (video-on-demand / NetTube studies): a few Mbit/s for most
  users with a broadband tail;
* "a node's upload bandwidth capacity was set to 1/3 of its download
  bandwidth" [44, 45];
* supernode *capacity* — the maximum number of normal nodes a supernode
  can support — follows a Pareto distribution with mean 5 and shape
  alpha = 2 [46, 47] (alpha = 1 yields an infinite mean; the paper lists
  both alpha = 2 and "shape parameter alpha = 1" in different sentences —
  we take the finite-mean variant and expose the knob).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..sim.rng import EmpiricalDistribution, pareto_capacities

__all__ = [
    "DOWNLOAD_BANDWIDTH_TRACE",
    "UPLOAD_FRACTION",
    "BandwidthModel",
    "LinkBandwidths",
]

#: Residential download-bandwidth distribution (Mbit/s), synthesised
#: from the measurement studies the paper cites [42, 43]: DSL/cable mix
#: with a median of a few Mbit/s and a fibre tail.  OnLive's recommended
#: 5 Mbit/s (§1) is attainable by roughly the upper half of users.
DOWNLOAD_BANDWIDTH_TRACE = EmpiricalDistribution(
    values=[1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0, 50.0],
    frequencies=[8.0, 14.0, 18.0, 24.0, 16.0, 10.0, 7.0, 3.0],
    jitter=0.5,
)

#: Upload capacity as a fraction of download capacity [44, 45].
UPLOAD_FRACTION = 1.0 / 3.0


@dataclass(frozen=True)
class LinkBandwidths:
    """Per-node download/upload capacities in Mbit/s."""

    download_mbps: np.ndarray
    upload_mbps: np.ndarray

    def __post_init__(self) -> None:
        if self.download_mbps.shape != self.upload_mbps.shape:
            raise ValueError("download/upload arrays must have equal shape")
        if np.any(self.download_mbps <= 0) or np.any(self.upload_mbps <= 0):
            raise ValueError("bandwidths must be positive")

    def __len__(self) -> int:
        return int(self.download_mbps.shape[0])


@dataclass
class BandwidthModel:
    """Samples link bandwidths and supernode capacities."""

    download_trace: EmpiricalDistribution = field(
        default_factory=lambda: DOWNLOAD_BANDWIDTH_TRACE)
    upload_fraction: float = UPLOAD_FRACTION
    supernode_capacity_mean: float = 5.0
    supernode_capacity_alpha: float = 2.0
    supernode_capacity_max: float = 40.0

    def __post_init__(self) -> None:
        if not 0 < self.upload_fraction <= 1:
            raise ValueError("upload_fraction must lie in (0, 1]")
        if self.supernode_capacity_mean <= 0:
            raise ValueError("supernode_capacity_mean must be positive")

    def sample_links(self, rng: np.random.Generator, n: int) -> LinkBandwidths:
        """Sample download/upload capacities for ``n`` nodes."""
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        download = np.asarray(
            self.download_trace.sample(rng, size=n), dtype=np.float64)
        download = np.maximum(download, 0.25)  # floor: no dead links
        upload = download * self.upload_fraction
        return LinkBandwidths(download_mbps=download, upload_mbps=upload)

    def sample_supernode_capacities(self, rng: np.random.Generator,
                                    n: int) -> np.ndarray:
        """Sample the max player counts for ``n`` supernodes (Pareto)."""
        return pareto_capacities(
            rng, n,
            mean=self.supernode_capacity_mean,
            alpha=self.supernode_capacity_alpha,
            minimum=1.0,
            maximum=self.supernode_capacity_max,
        )
