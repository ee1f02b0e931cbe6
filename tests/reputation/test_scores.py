"""Tests for Eq.-7 reputation scores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import (
    ReputationTable,
    raw_reputation_sum,
    reputation_score,
)


def test_no_history_scores_zero():
    """§3.2.1: supernodes with no previous interactions score 0."""
    ledger = RatingLedger()
    assert reputation_score(ledger, 1, 7, today=5) == 0.0


def test_single_rating_weighted_average_is_its_value():
    ledger = RatingLedger()
    ledger.add(1, 7, 0.8, day=0)
    assert reputation_score(ledger, 1, 7, today=0) == pytest.approx(0.8)
    # Aging shrinks the weight but not the normalised average.
    assert reputation_score(ledger, 1, 7, today=30) == pytest.approx(0.8)


def test_recent_ratings_dominate():
    """Eq. 7: recent interactions reflect future performance better."""
    ledger = RatingLedger()
    ledger.add(1, 7, 1.0, day=0)    # old: perfect
    ledger.add(1, 7, 0.0, day=20)   # recent: terrible
    score = reputation_score(ledger, 1, 7, today=20, aging_factor=0.9)
    assert score < 0.5  # pulled towards the recent rating


def test_raw_sum_matches_eq7_literally():
    ledger = RatingLedger()
    ledger.add(1, 7, 0.5, day=0)
    ledger.add(1, 7, 1.0, day=2)
    raw = raw_reputation_sum(ledger, 1, 7, today=2, aging_factor=0.5)
    # 0.5 * 0.5^2 + 1.0 * 0.5^0 = 0.125 + 1.0
    assert raw == pytest.approx(1.125)


def test_aging_factor_bounds():
    ledger = RatingLedger()
    with pytest.raises(ValueError):
        reputation_score(ledger, 1, 7, 0, aging_factor=1.0)
    with pytest.raises(ValueError):
        reputation_score(ledger, 1, 7, 0, aging_factor=0.0)
    with pytest.raises(ValueError):
        raw_reputation_sum(ledger, 1, 7, 0, aging_factor=1.5)


def test_table_refresh_scores_rated_pairs():
    ledger = RatingLedger()
    ledger.add(1, 10, 0.9, day=0)
    ledger.add(1, 20, 0.4, day=0)
    table = ReputationTable(ledger)
    table.refresh((1,), today=0)
    assert table.score(1, 10) == pytest.approx(0.9)
    assert table.score(1, 20) == pytest.approx(0.4)
    assert table.score(1, 99) == 0.0


def test_table_tracks_updates_after_refresh():
    ledger = RatingLedger()
    ledger.add(1, 10, 0.2, day=0)
    table = ReputationTable(ledger)
    table.refresh((1,), today=0)
    assert table.score(1, 10) == pytest.approx(0.2)
    ledger.add(1, 10, 1.0, day=1)
    # Stale until refreshed (the paper's periodic recomputation).
    assert table.score(1, 10) == pytest.approx(0.2)
    table.refresh((1,), today=1)
    assert table.score(1, 10) > 0.2


def test_table_validation():
    with pytest.raises(ValueError):
        ReputationTable(RatingLedger(), aging_factor=2.0)


@given(values=st.lists(st.floats(min_value=0.0, max_value=1.0),
                       min_size=1, max_size=30),
       aging=st.floats(min_value=0.05, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_property_score_bounded_by_rating_range(values, aging):
    """A weighted average of [0,1] ratings stays in [0,1]."""
    ledger = RatingLedger(max_ratings_per_pair=64)
    for day, value in enumerate(values):
        ledger.add(1, 7, value, day=day)
    score = reputation_score(ledger, 1, 7, today=len(values),
                             aging_factor=aging)
    assert 0.0 <= score <= 1.0
    assert min(values[-64:]) - 1e-9 <= score <= max(values[-64:]) + 1e-9


_history = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3),
                              st.floats(0.0, 1.0)), max_size=30)


@given(history=_history,
       event=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 4)),
                      max_size=8, unique_by=lambda pair: pair[0]),
       cap=st.integers(1, 4), day=st.integers(0, 3))
@settings(max_examples=150, deadline=None)
def test_batched_penalties_equal_sequential(history, event, cap, day):
    """One fault event's penalties as one batch leave the ledger columns
    and every score equal to one ``penalize`` per orphan, in order."""
    tables = []
    for _ in range(2):
        ledger = RatingLedger(max_ratings_per_pair=cap)
        table = ReputationTable(ledger, aging_factor=0.9)
        for player, supernode, value in history:
            ledger.add(player, supernode, value, day=0)
        table.refresh(range(5), today=0)
        tables.append(table)
    sequential, batched = tables
    for player, supernode in event:
        sequential.penalize(player, supernode, today=day)
    batched.penalize_many([player for player, _ in event],
                          [supernode for _, supernode in event], today=day)
    assert (batched.ledger.to_columns()
            == sequential.ledger.to_columns())
    assert batched.to_columns() == sequential.to_columns()
