"""Rating ledger: per-player records of supernode performance.

§3.2.1: "a player evaluates its supernode's performance in providing
fluent game video streaming service after each game" and "each player
use[s] its own evaluation without gathering opinions from other players"
— the defence against sybil attacks and collusion.  §4.1: "each player
rates the supernode using the value of its game video playback
continuity during this gaming activity."

Each rating is a continuity in [0, 1] and carries the day it was
given; ages (in days) weight the aggregation in :mod:`repro.reputation.scores`.

The ledger is columnar: a pair table maps each (player, supernode) to
a pair id, and the ratings form one append-only log of three columns
(``pair``, ``value``, ``day``) in arrival order.  The per-pair cap is
a mask over the log, never a deletion, so a pair's live ratings are
always its newest ``max_ratings_per_pair`` log entries, oldest first.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["RatingLedger"]


#: The largest day the int32 day column holds.
_MAX_DAY = np.iinfo(np.int32).max


def _grown(column: np.ndarray, size: int) -> np.ndarray:
    """``column`` with room for at least ``size`` entries (doubling)."""
    if size <= len(column):
        return column
    grown = np.empty(max(size, 2 * len(column)), dtype=column.dtype)
    grown[:len(column)] = column
    return grown


def _flat(values: list, dtype, name: str) -> np.ndarray:
    column = np.asarray(values, dtype=dtype)
    if column.ndim != 1:
        raise ValueError(f"{name} is not a flat column")
    return column


class RatingLedger:
    """All ratings, keyed by (rater player, rated supernode).

    Strictly first-person: the ledger never mixes different players'
    opinions of a supernode into one pool (the §3.2.1 sybil defence is a
    structural property here, enforced by the pair key).
    """

    def __init__(self, max_ratings_per_pair: int = 64) -> None:
        if max_ratings_per_pair <= 0:
            raise ValueError("max_ratings_per_pair must be positive")
        self.max_ratings_per_pair = max_ratings_per_pair
        # Pair table: key -> pair id, id -> key, ratings ever given.
        self._pair_ids: dict[tuple[int, int], int] = {}
        self._pair_keys: list[tuple[int, int]] = []
        self._pair_counts: list[int] = []
        # Per-player pair ids: refresh selects a player's pairs by it.
        self._pairs_by_player: dict[int, list[int]] = {}
        # The rating log; ``_size`` entries are in use.
        self._size = 0
        self._log_pair = np.empty(256, dtype=np.int32)
        self._log_value = np.empty(256, dtype=np.float64)
        self._log_day = np.empty(256, dtype=np.int32)
        # Whether any pair ever exceeded the cap, and the live mask
        # cached for the log length it was computed at.
        self._capped = False
        self._alive: np.ndarray | None = None

    # -- writing ----------------------------------------------------------
    def add(self, player: int, supernode: int, value: float, day: int) -> None:
        """Record one rating; oldest ratings roll off past the cap."""
        self.add_many((player,), (supernode,), (value,), day)

    def add_many(self, players: Iterable[int], supernodes: Iterable[int],
                 values: Iterable[float], day: int) -> None:
        """Record one rating per ``(player, supernode, value)`` triple,
        all given on ``day``, in order.

        The whole batch is validated first: a value outside [0, 1]
        (NaN included) or a negative day raises ``ValueError`` and
        leaves the ledger unchanged.
        """
        players, supernodes = list(players), list(supernodes)
        values = np.asarray(list(values), dtype=np.float64)
        if not len(players) == len(supernodes) == len(values):
            raise ValueError("players, supernodes and values differ in "
                             "length")
        if not 0 <= day <= _MAX_DAY:
            raise ValueError(
                f"day must be non-negative and fit the day column, got {day}")
        bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"rating {i} (player {players[i]}, supernode "
                f"{supernodes[i]}) must lie in [0, 1] (a continuity), "
                f"got {values[i]}")
        pair_ids, pair_keys = self._pair_ids, self._pair_keys
        counts, cap = self._pair_counts, self.max_ratings_per_pair
        pairs = []
        for key in zip(players, supernodes):
            pair = pair_ids.get(key)
            if pair is None:
                pair = pair_ids[key] = len(pair_keys)
                pair_keys.append(key)
                counts.append(0)
                self._pairs_by_player.setdefault(key[0], []).append(pair)
            counts[pair] += 1
            if counts[pair] > cap:
                self._capped = True
            pairs.append(pair)
        start, self._size = self._size, self._size + len(pairs)
        self._log_pair = _grown(self._log_pair, self._size)
        self._log_value = _grown(self._log_value, self._size)
        self._log_day = _grown(self._log_day, self._size)
        self._log_pair[start:self._size] = pairs
        self._log_value[start:self._size] = values
        self._log_day[start:self._size] = day

    # -- the log, for Eq. 7 -------------------------------------------------
    def _alive_mask(self) -> np.ndarray | None:
        """Which log entries are among their pair's newest ``cap``;
        None while no pair has ever exceeded the cap (all are live)."""
        if not self._capped:
            return None
        size = self._size
        if self._alive is None or len(self._alive) != size:
            pair = self._log_pair[:size]
            counts = np.asarray(self._pair_counts, dtype=np.int64)
            # Rank of each entry within its pair, in log order.
            order = np.argsort(pair, kind="stable")
            starts = np.cumsum(counts) - counts
            rank = np.empty(size, dtype=np.int64)
            rank[order] = np.arange(size) - np.repeat(starts, counts)
            self._alive = rank >= counts[pair] - self.max_ratings_per_pair
        return self._alive

    def live_entries(self, pairs: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live ratings of ``pairs`` (distinct pair ids), in log order.

        Returns ``(rows, values, days)``: ``rows`` indexes ``pairs``.
        """
        row_of = np.full(len(self._pair_keys), -1, dtype=np.int32)
        row_of[pairs] = np.arange(len(pairs), dtype=np.int32)
        rows = row_of.take(self._log_pair[:self._size])
        keep = rows >= 0
        alive = self._alive_mask()
        if alive is not None:
            keep &= alive
        entries = np.flatnonzero(keep)
        return (rows[entries], self._log_value[entries],
                self._log_day[entries])

    def pair_id(self, player: int, supernode: int) -> int | None:
        return self._pair_ids.get((player, supernode))

    def pair_keys(self, pairs: Iterable[int]) -> list[tuple[int, int]]:
        """The ``(player, supernode)`` key of each pair id."""
        keys = self._pair_keys
        return [keys[pair] for pair in pairs]

    def player_pairs(self, players: Iterable[int]) -> list[int]:
        """Distinct pair ids of every supernode these players rated."""
        by_player = self._pairs_by_player
        return [pair for player in dict.fromkeys(players)
                for pair in by_player.get(player, ())]

    def pairs(self) -> Iterator[tuple[int, int]]:
        return iter(self._pair_keys)

    # -- columns out / in (checkpoints) -------------------------------------
    def to_columns(self) -> dict[str, list]:
        """The pair table and the rating log as JSON-ready columns."""
        size = self._size
        return {
            "pair_player": [player for player, _ in self._pair_keys],
            "pair_supernode": [sn for _, sn in self._pair_keys],
            "log_pair": self._log_pair[:size].tolist(),
            "log_value": self._log_value[:size].tolist(),
            "log_day": self._log_day[:size].tolist(),
        }

    def load_columns(self, columns: dict) -> None:
        """Replace the contents with :meth:`to_columns` output.

        Raises ``ValueError`` naming the offending index when the
        columns disagree in length, a pair repeats, a log entry names
        no pair, a value lies outside [0, 1] or a day is negative; the
        ledger is unchanged then.
        """
        players, supernodes = (columns["pair_player"],
                               columns["pair_supernode"])
        log_pair, log_value, log_day = (columns["log_pair"],
                                        columns["log_value"],
                                        columns["log_day"])
        if len(players) != len(supernodes):
            raise ValueError(
                f"pair table columns differ in length ({len(players)} "
                f"players, {len(supernodes)} supernodes)")
        if not len(log_pair) == len(log_value) == len(log_day):
            raise ValueError(
                f"rating log columns differ in length ({len(log_pair)} "
                f"pairs, {len(log_value)} values, {len(log_day)} days)")
        keys = list(zip(players, supernodes))
        pair_ids = {key: pair for pair, key in enumerate(keys)}
        if len(pair_ids) != len(keys):
            first = next(pair for pair, key in enumerate(keys)
                         if pair_ids[key] != pair)
            raise ValueError(f"pair {first} {keys[first]} appears again "
                             f"as pair {pair_ids[keys[first]]}")
        pair, value, day = (_flat(log_pair, np.int64, "log_pair"),
                            _flat(log_value, np.float64, "log_value"),
                            _flat(log_day, np.int64, "log_day"))
        for name, bad in (
                ("names no pair", (pair < 0) | (pair >= len(keys))),
                ("has a value outside [0, 1]",
                 ~((value >= 0.0) & (value <= 1.0))),
                ("has a negative day", day < 0),
                ("has a day past the day column", day > _MAX_DAY)):
            if bad.any():
                i = int(np.argmax(bad))
                raise ValueError(
                    f"rating log entry {i} {name} (pair {log_pair[i]}, "
                    f"value {log_value[i]}, day {log_day[i]})")
        by_player: dict[int, list[int]] = {}
        for pair_id, (player, _) in enumerate(keys):
            by_player.setdefault(player, []).append(pair_id)
        counts = np.bincount(pair, minlength=len(keys))
        self._pair_ids, self._pair_keys = pair_ids, keys
        self._pair_counts = counts.tolist()
        self._pairs_by_player = by_player
        self._size = len(pair)
        self._log_pair = pair.astype(np.int32)
        self._log_value = value
        self._log_day = day.astype(np.int32)
        self._capped = bool((counts > self.max_ratings_per_pair).any())
        self._alive = None
