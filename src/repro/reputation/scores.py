"""Reputation scores — Eq. 7 of the paper.

The overall reputation of supernode j in the eyes of player i is the
age-weighted aggregate of i's own ratings of j::

    s_ij = sum_{k=1..N_r} r_k * lambda^{d_k},    0 < lambda < 1      (7)

where ``r_k`` is the k-th rating, ``d_k`` its age in days and ``lambda``
the aging factor.  The paper describes s_ij as "the weighted average of
all ratings", so we normalise by the weight mass ``sum_k lambda^{d_k}``
(the raw Eq.-7 sum is also available for ablation).  Supernodes with no
history score 0 — i.e. strangers rank below any supernode that ever
delivered decent continuity.

All scores come from one kernel, :func:`_eq7_sums`: it gathers the
live ratings of a set of pairs from the ledger's log and accumulates
each pair's weight mass and weighted sum with ``np.bincount``.  The
bincount adds in log order (oldest rating first) from 0.0, exactly as
a left-to-right Python loop over the pair's ratings would, and every
weight ``lambda^d`` is Python's scalar ``aging_factor ** d``, so the
batched scores are bit-identical to the per-rating formula.  One
refresh costs one pass over the log and one over the pair table,
whatever the number of players refreshed; the paper's complexity note
puts the full recomputation at O(m * n * N_r).
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .ratings import RatingLedger

__all__ = ["DEFAULT_AGING_FACTOR", "reputation_score", "raw_reputation_sum",
           "ReputationTable"]

#: Default aging factor lambda.  The evaluation section's "λ = 1" line is
#: garbled in the available text and lambda must satisfy 0 < lambda < 1;
#: 0.95 halves a rating's weight in about two weeks.
DEFAULT_AGING_FACTOR = 0.95


def _check_lambda(aging_factor: float) -> None:
    if not 0.0 < aging_factor < 1.0:
        raise ValueError(
            f"aging factor must satisfy 0 < lambda < 1 (Eq. 7), got {aging_factor}")


class _AgingPowers:
    """The weights ``lambda^age`` for ages 0, 1, …, grown on demand.

    Each entry is Python's ``aging_factor ** age`` (not numpy's power),
    so a weight equals the scalar formula's bit for bit.
    """

    def __init__(self, aging_factor: float) -> None:
        self.aging_factor = aging_factor
        self._table = np.ones(1)

    def __call__(self, ages: np.ndarray) -> np.ndarray:
        top = int(ages.max()) if ages.size else 0
        if top >= len(self._table):
            self._table = np.array(
                [self.aging_factor ** age
                 for age in range(max(top + 1, 2 * len(self._table)))])
        return self._table[ages]


def _eq7_sums(ledger: RatingLedger, pairs: np.ndarray, today: int,
              powers: _AgingPowers) -> tuple[np.ndarray, np.ndarray]:
    """Per pair: the weight mass ``sum_k lambda^{d_k}`` and the raw
    Eq.-7 sum ``sum_k r_k lambda^{d_k}`` over its live ratings."""
    rows, values, days = ledger.live_entries(pairs)
    ages = today - days.astype(np.int64)
    if ages.size and ages.min() < 0:
        raise ValueError(f"today ({today}) precedes the rating day "
                         f"({int(days.max())})")
    weights = powers(ages)
    mass = np.bincount(rows, weights=weights, minlength=len(pairs))
    weighted = np.bincount(rows, weights=values * weights,
                           minlength=len(pairs))
    return mass, weighted


def _pair_sums(ledger: RatingLedger, player: int, supernode: int,
               today: int, aging_factor: float) -> tuple[float, float]:
    _check_lambda(aging_factor)
    pair = ledger.pair_id(player, supernode)
    if pair is None:
        return 0.0, 0.0
    mass, weighted = _eq7_sums(ledger, np.array([pair]), today,
                               _AgingPowers(aging_factor))
    return float(mass[0]), float(weighted[0])


def raw_reputation_sum(ledger: RatingLedger, player: int, supernode: int,
                       today: int,
                       aging_factor: float = DEFAULT_AGING_FACTOR) -> float:
    """The literal Eq. 7 sum (un-normalised)."""
    return _pair_sums(ledger, player, supernode, today, aging_factor)[1]


def reputation_score(ledger: RatingLedger, player: int, supernode: int,
                     today: int,
                     aging_factor: float = DEFAULT_AGING_FACTOR) -> float:
    """Eq. 7 as a weighted average; 0 without history."""
    mass, weighted = _pair_sums(ledger, player, supernode, today,
                                aging_factor)
    return weighted / mass if mass != 0.0 else 0.0


class ReputationTable:
    """A player-side cache of current scores, refreshed periodically.

    §3.2.1: each player "periodically calculates the overall reputation
    scores of its supernodes."  The table recomputes all of one player's
    scores in one pass (the O(n_ratings) inner loop of the paper's
    O(m n N_r) batch); one :meth:`refresh` call serves a whole day's
    raters.

    ``neutral_prior`` is the score of never-rated supernodes.  The paper
    sets it to 0, which makes a player cling to the first supernode it
    ever rated (anything known beats everything unknown) and never
    discover better ones.  Setting the prior to the continuity an honest
    supernode typically delivers (~0.9) restores exploration: players
    abandon supernodes that fall below the prior and try fresh
    candidates — optimism under uncertainty.  The default keeps the
    paper's literal 0; the CloudFog system passes 0.9 (see DESIGN.md).
    """

    def __init__(self, ledger: RatingLedger,
                 aging_factor: float = DEFAULT_AGING_FACTOR,
                 neutral_prior: float = 0.0) -> None:
        _check_lambda(aging_factor)
        if not 0.0 <= neutral_prior <= 1.0:
            raise ValueError(
                f"neutral_prior must lie in [0, 1], got {neutral_prior}")
        self.ledger = ledger
        self.aging_factor = aging_factor
        self.neutral_prior = neutral_prior
        self._powers = _AgingPowers(aging_factor)
        # The score cache: one dict lookup per selection candidate.
        self._scores: dict[tuple[int, int], float] = {}

    def refresh(self, players: Iterable[int], today: int) -> None:
        """Recompute every score these players hold, in one Eq.-7 pass
        over the rating log; other players' scores stay as they were."""
        pairs = self.ledger.player_pairs(players)
        if not pairs:
            return
        mass, weighted = _eq7_sums(self.ledger, np.array(pairs), today,
                                   self._powers)
        # Eq. 7 as a weighted average; 0 where the mass underflowed.
        scores = np.zeros_like(mass)
        np.divide(weighted, mass, out=scores, where=mass != 0.0)
        self._scores.update(zip(self.ledger.pair_keys(pairs),
                                scores.tolist()))

    def score(self, player: int, supernode: int) -> float:
        """Cached score; the neutral prior for never-rated supernodes."""
        return self._scores.get((player, supernode), self.neutral_prior)

    def penalize(self, player: int, supernode: int, today: int,
                 value: float = 0.0) -> None:
        """Record a failure as a worst-case rating and refresh at once.

        A crashed supernode delivered zero continuity to the players it
        dropped, so the displacement enters the first-person ledger as
        a ``value`` (default 0) rating.  Refreshing immediately makes
        reputation-based selection (strategy 1) steer those players
        around the failed node as soon as it resurfaces — without this,
        a node could crash nightly and still be ranked on its sunny-day
        history alone.
        """
        self.penalize_many((player,), (supernode,), today, value)

    def penalize_many(self, players: Sequence[int],
                      supernodes: Sequence[int], today: int,
                      value: float = 0.0) -> None:
        """:meth:`penalize` every ``(player, supernode)`` pair: one
        batched ledger add, then one refresh of all the players.

        Leaves the ledger and every score equal to one :meth:`penalize`
        per pair in order: the ratings enter the log in the same order,
        and the last refresh of a player rescores all its pairs from
        the whole log either way.
        """
        self.ledger.add_many(players, supernodes, [value] * len(players),
                             today)
        self.refresh(players, today)

    # -- columns out / in (checkpoints) -------------------------------------
    def to_columns(self) -> dict[str, list]:
        """The cached scores as one column aligned to the ledger's pair
        table; None marks a pair never refreshed (it scores the prior)."""
        scores = self._scores
        return {"score": [scores.get(key) for key in self.ledger.pairs()]}

    def load_columns(self, columns: dict) -> None:
        """Replace the cache with :meth:`to_columns` output, after the
        ledger's own columns are loaded.  Raises ``ValueError`` naming
        the offending index on a length or type mismatch."""
        column = columns["score"]
        keys = list(self.ledger.pairs())
        if len(column) != len(keys):
            raise ValueError(f"score column holds {len(column)} entries "
                             f"for {len(keys)} pairs")
        for pair, score in enumerate(column):
            if score is not None and not isinstance(score, float):
                raise ValueError(f"score {pair} is not a float: {score!r}")
        self._scores = {key: score for key, score in zip(keys, column)
                        if score is not None}
