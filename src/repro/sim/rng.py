"""Seeded randomness utilities.

Every stochastic component in the reproduction draws from a named
sub-stream of a single root seed, so that (a) whole experiments are
reproducible from one integer and (b) changing how one component consumes
randomness does not perturb the others.

The distribution helpers mirror the paper's experimental settings:
bounded Pareto supernode capacities (§4.1, [46, 47]), power-law friend
counts (skew 1.5 [49]), and sampling from empirical frequency tables
(the League-of-Legends ping trace).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

__all__ = ["RngFactory", "pareto_capacities", "powerlaw_counts", "EmpiricalDistribution"]


class RngFactory:
    """Factory for named, independent random generators.

    >>> rng = RngFactory(42)
    >>> a = rng.stream("arrivals")
    >>> b = rng.stream("latency")

    The same (seed, name) pair always yields the same stream, regardless
    of creation order.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a generator for the sub-stream called ``name``."""
        # Derive child entropy deterministically from the stream name.
        name_entropy = [ord(ch) for ch in name]
        sequence = np.random.SeedSequence([self.seed, *name_entropy])
        return np.random.default_rng(sequence)

    def spawn(self, name: str) -> "RngFactory":
        """Derive a child factory (e.g. one per experiment repetition)."""
        child_seed = int(self.stream(name).integers(0, 2**31 - 1))
        return RngFactory(child_seed)


def pareto_capacities(
    rng: np.random.Generator,
    n: int,
    mean: float = 5.0,
    alpha: float = 2.0,
    minimum: float = 1.0,
    maximum: Optional[float] = None,
) -> np.ndarray:
    """Sample ``n`` heavy-tailed capacities with the given mean.

    The paper draws supernode capacities from a Pareto distribution with
    shape ``alpha`` and a target mean (5 normal nodes per supernode in the
    simulation settings).  For a Pareto with shape a > 1 and scale x_m the
    mean is ``a * x_m / (a - 1)``, so we solve for the scale, sample, then
    clip to ``[minimum, maximum]`` and round to whole player slots.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if alpha <= 1:
        raise ValueError(f"alpha must exceed 1 for a finite mean, got {alpha}")
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    scale = mean * (alpha - 1) / alpha
    raw = scale * (1 + rng.pareto(alpha, size=n))
    clipped = np.clip(raw, minimum, maximum if maximum is not None else np.inf)
    return np.maximum(np.rint(clipped), minimum).astype(np.int64)


def powerlaw_counts(
    rng: np.random.Generator,
    n: int,
    skew: float = 1.5,
    minimum: int = 1,
    maximum: int = 200,
) -> np.ndarray:
    """Sample ``n`` integer counts from a discrete power law (Zipf-like).

    Used for friend-list sizes: "the number of friends for each player
    follows power-law distribution with skew factor of 1.5" (§4.1).
    Sampling uses inverse-CDF over the truncated support so the skew is
    exact rather than an unbounded-zeta approximation.
    """
    if minimum < 1 or maximum < minimum:
        raise ValueError(f"invalid support [{minimum}, {maximum}]")
    support = np.arange(minimum, maximum + 1, dtype=np.float64)
    weights = support ** (-skew)
    weights /= weights.sum()
    return rng.choice(support.astype(np.int64), size=n, p=weights)


class EmpiricalDistribution:
    """Sample values proportionally to observed occurrence frequencies.

    The paper selects pairwise communication latencies "from the ping
    latency traces from League of Legends based on each latency's
    occurrence frequency" — exactly this construct.  Between bucket
    centres we jitter uniformly across the bucket width so samples are
    continuous.
    """

    def __init__(self, values: Sequence[float], frequencies: Sequence[float],
                 jitter: float = 0.0) -> None:
        values = np.asarray(values, dtype=np.float64)
        frequencies = np.asarray(frequencies, dtype=np.float64)
        if values.shape != frequencies.shape or values.ndim != 1:
            raise ValueError("values and frequencies must be 1-D and equal length")
        if values.size == 0:
            raise ValueError("empirical distribution needs at least one bucket")
        if np.any(frequencies < 0) or frequencies.sum() <= 0:
            raise ValueError("frequencies must be non-negative and not all zero")
        self.values = values
        self.probabilities = frequencies / frequencies.sum()
        self.jitter = float(jitter)

    def sample(self, rng: np.random.Generator, size: Optional[int] = None):
        """Draw one value (size=None) or an array of samples."""
        n = 1 if size is None else int(size)
        picks = rng.choice(self.values, size=n, p=self.probabilities)
        if self.jitter > 0:
            picks = picks + rng.uniform(-self.jitter / 2, self.jitter / 2, size=n)
            picks = np.maximum(picks, 0.0)
        return float(picks[0]) if size is None else picks
