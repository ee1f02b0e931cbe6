"""The batched Eq.-7 kernel against the per-rating Python formula.

The oracle below is the scalar formula the columnar ledger replaced: a
dict of capped per-pair rating lists, and a score that walks one
pair's ratings oldest first, weighting each by ``aging_factor ** age``
and summing left to right from zero.  The kernel must reproduce it bit
for bit (``==``, never ``approx``): refreshes, penalties, one-pair
calls and a checkpoint round trip included.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import (
    ReputationTable,
    raw_reputation_sum,
    reputation_score,
)

from ..helpers.ratings import live_ratings

PLAYERS = range(4)
SUPERNODES = range(5)
PRIOR = 0.9


def oracle_sums(ratings, today, aging_factor):
    """(weight mass, raw Eq.-7 sum) of one pair's ratings, oldest first."""
    mass = weighted = 0.0
    for value, day in ratings:
        if today < day:
            raise ValueError("today precedes the rating day")
        weight = aging_factor ** (today - day)
        mass += weight
        weighted += value * weight
    return mass, weighted


def oracle_score(ratings, today, aging_factor):
    mass, weighted = oracle_sums(ratings, today, aging_factor)
    return weighted / mass if ratings and mass != 0.0 else 0.0


class OracleTable:
    """The per-pair list ledger and score cache the kernel replaced."""

    def __init__(self, cap, aging_factor):
        self.cap = cap
        self.aging_factor = aging_factor
        self.ratings = {}
        self.scores = {}

    def add(self, player, supernode, value, day):
        ratings = self.ratings.setdefault((player, supernode), [])
        ratings.append((value, day))
        if len(ratings) > self.cap:
            del ratings[0]

    def refresh(self, player, today):
        for (rater, supernode), ratings in self.ratings.items():
            if rater == player:
                self.scores[(rater, supernode)] = oracle_score(
                    ratings, today, self.aging_factor)

    def score(self, player, supernode):
        return self.scores.get((player, supernode), PRIOR)


players = st.sampled_from(PLAYERS)
supernodes = st.sampled_from(SUPERNODES)
ratings = st.tuples(players, supernodes, st.floats(0.0, 1.0))
# Same-day batches, short gaps, and gaps that age ratings by hundreds
# of days (lambda^age underflows to 0 for the smallest lambdas).
gaps = st.one_of(st.just(0), st.integers(1, 3), st.integers(50, 300))
days = st.tuples(gaps, st.lists(ratings, max_size=10),
                 st.lists(st.tuples(players, supernodes), max_size=2),
                 st.sets(players))


def replay(history, cap, aging_factor):
    """Feed one history to the ledger and to the oracle; return both
    tables and the last day."""
    ledger = RatingLedger(max_ratings_per_pair=cap)
    table = ReputationTable(ledger, aging_factor, neutral_prior=PRIOR)
    oracle = OracleTable(cap, aging_factor)
    today = 0
    for gap, batch, penalties, refreshed in history:
        today += gap
        ledger.add_many([p for p, _, _ in batch], [s for _, s, _ in batch],
                        [v for _, _, v in batch], today)
        for player, supernode, value in batch:
            oracle.add(player, supernode, value, today)
        # A subset refreshes; everyone else's scores stay stale.
        table.refresh(refreshed, today)
        for player in refreshed:
            oracle.refresh(player, today)
        for player, supernode in penalties:
            table.penalize(player, supernode, today)
            oracle.add(player, supernode, 0.0, today)
            oracle.refresh(player, today)
    return table, oracle, today


def assert_same_scores(table, oracle):
    for player in PLAYERS:
        for supernode in SUPERNODES:
            assert table.score(player, supernode) == \
                oracle.score(player, supernode), (player, supernode)


@given(history=st.lists(days, min_size=1, max_size=8),
       cap=st.integers(1, 4), aging_factor=st.floats(0.05, 0.99))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_per_rating_formula(history, cap, aging_factor):
    table, oracle, today = replay(history, cap, aging_factor)
    assert_same_scores(table, oracle)
    ledger = table.ledger
    for (player, supernode), kept in oracle.ratings.items():
        assert live_ratings(ledger, player, supernode) == kept
        mass, weighted = oracle_sums(kept, today, aging_factor)
        assert raw_reputation_sum(ledger, player, supernode, today,
                                  aging_factor) == weighted
        assert reputation_score(ledger, player, supernode, today,
                                aging_factor) == \
            oracle_score(kept, today, aging_factor)

    # The columns round-trip: same scores now, same scores after the
    # next refresh of everyone.
    restored = ReputationTable(RatingLedger(max_ratings_per_pair=cap),
                               aging_factor, neutral_prior=PRIOR)
    columns = {**ledger.to_columns(), **table.to_columns()}
    restored.ledger.load_columns(columns)
    restored.load_columns(columns)
    assert_same_scores(restored, oracle)
    restored.refresh(PLAYERS, today + 1)
    for player in PLAYERS:
        oracle.refresh(player, today + 1)
    assert_same_scores(restored, oracle)


@given(values=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=40),
       gaps=st.lists(st.integers(0, 3), min_size=40, max_size=40),
       aging_factor=st.floats(0.05, 0.99))
@settings(max_examples=100, deadline=None)
def test_long_pair_history_sums_left_to_right(values, gaps, aging_factor):
    """Eight or more ratings of one pair: numpy's pairwise summation
    would differ from the left-to-right oracle here."""
    ledger = RatingLedger()
    table = ReputationTable(ledger, aging_factor)
    kept, day = [], 0
    for value, gap in zip(values, gaps):
        day += gap
        ledger.add(1, 7, value, day)
        kept.append((value, day))
    table.refresh((1,), day)
    assert table.score(1, 7) == oracle_score(kept, day, aging_factor)
    assert raw_reputation_sum(ledger, 1, 7, day, aging_factor) == \
        oracle_sums(kept, day, aging_factor)[1]


def test_refresh_before_a_rating_day_raises():
    ledger = RatingLedger()
    ledger.add(1, 7, 0.5, day=5)
    table = ReputationTable(ledger)
    with pytest.raises(ValueError, match="precedes"):
        table.refresh((1,), today=4)
    with pytest.raises(ValueError, match="precedes"):
        reputation_score(ledger, 1, 7, today=4)


def test_refresh_takes_duplicate_players():
    ledger = RatingLedger()
    ledger.add(1, 7, 0.5, day=0)
    table = ReputationTable(ledger)
    table.refresh([1, 1, 2], today=0)
    assert table.score(1, 7) == 0.5
