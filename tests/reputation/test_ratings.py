"""Tests for the rating ledger."""

import numpy as np
import pytest

from repro.reputation.ratings import RatingLedger

from ..helpers.ratings import live_count, live_ratings, rated_supernodes


def test_rating_validation():
    """A rating is a continuity in [0, 1] given on a day >= 0."""
    ledger = RatingLedger()
    with pytest.raises(ValueError):
        ledger.add(1, 7, value=1.2, day=0)
    with pytest.raises(ValueError):
        ledger.add(1, 7, value=-0.1, day=0)
    with pytest.raises(ValueError):
        ledger.add(1, 7, value=0.5, day=-1)
    assert live_count(ledger) == 0


def test_ledger_add_and_query():
    ledger = RatingLedger()
    ledger.add(player=1, supernode=7, value=0.8, day=0)
    ledger.add(player=1, supernode=7, value=0.9, day=1)
    assert live_ratings(ledger, 1, 7) == [(0.8, 0), (0.9, 1)]
    assert ledger.pair_id(1, 7) is not None
    assert ledger.pair_id(1, 8) is None
    assert live_count(ledger) == 2


def test_ledger_is_first_person():
    """Player 2's ratings never leak into player 1's view (sybil defence)."""
    ledger = RatingLedger()
    ledger.add(player=2, supernode=7, value=1.0, day=0)
    assert live_ratings(ledger, 1, 7) == []
    assert ledger.pair_id(1, 7) is None


def test_ledger_cap_rolls_off_oldest():
    ledger = RatingLedger(max_ratings_per_pair=3)
    for day in range(5):
        ledger.add(1, 7, value=day / 10.0, day=day)
    assert [day for _, day in live_ratings(ledger, 1, 7)] == [2, 3, 4]
    # The log keeps every rating; the cap masks the oldest.
    assert ledger.to_columns()["log_day"] == [0, 1, 2, 3, 4]


def test_ledger_cap_validation():
    with pytest.raises(ValueError):
        RatingLedger(max_ratings_per_pair=0)


def test_rated_supernodes():
    ledger = RatingLedger()
    ledger.add(1, 9, 0.5, 0)
    ledger.add(1, 3, 0.5, 0)
    ledger.add(2, 4, 0.5, 0)
    assert rated_supernodes(ledger, 1) == [3, 9]
    assert rated_supernodes(ledger, 3) == []


def test_ratings_returns_copy():
    """Callers may scribble on the columns they read."""
    ledger = RatingLedger()
    ledger.add(1, 7, 0.5, 0)
    _, values, days = ledger.live_entries(np.array([ledger.pair_id(1, 7)]))
    values[:] = 0.0
    days[:] = 9
    assert live_ratings(ledger, 1, 7) == [(0.5, 0)]


def test_add_many_records_in_order():
    """The per-pair cap and eviction order hold inside one batch."""
    ledger = RatingLedger(max_ratings_per_pair=2)
    ledger.add_many([1, 1, 2, 1], [7, 7, 7, 7], [0.1, 0.2, 0.3, 0.4], day=4)
    assert live_ratings(ledger, 1, 7) == [(0.2, 4), (0.4, 4)]
    assert live_ratings(ledger, 2, 7) == [(0.3, 4)]
    assert live_count(ledger) == 3
    columns = ledger.to_columns()
    assert columns["log_value"] == [0.1, 0.2, 0.3, 0.4]
    assert columns["log_pair"] == [0, 0, 1, 0]


@pytest.mark.parametrize("value", [1.5, -0.25, float("nan")])
def test_add_many_rejects_the_whole_batch(value):
    """One bad record rejects the batch before anything is recorded."""
    ledger = RatingLedger()
    ledger.add(1, 7, 0.5, day=0)
    before = ledger.to_columns()
    with pytest.raises(ValueError,
                       match=r"rating 2 \(player 3, supernode 9\)"):
        ledger.add_many([1, 2, 3], [7, 8, 9], [0.9, 0.8, value], day=1)
    assert ledger.to_columns() == before
    assert rated_supernodes(ledger, 2) == []
    assert ledger.pair_id(3, 9) is None


def test_add_many_rejects_a_negative_day():
    ledger = RatingLedger()
    with pytest.raises(ValueError, match="non-negative"):
        ledger.add_many([1], [7], [0.5], day=-1)
    assert live_count(ledger) == 0
    assert list(ledger.pairs()) == []


def test_columns_round_trip():
    ledger = RatingLedger(max_ratings_per_pair=2)
    ledger.add_many([1, 1, 1, 2], [7, 7, 7, 3], [0.1, 0.2, 0.3, 0.4], day=0)
    restored = RatingLedger(max_ratings_per_pair=2)
    restored.load_columns(ledger.to_columns())
    assert restored.to_columns() == ledger.to_columns()
    assert live_ratings(restored, 1, 7) == [(0.2, 0), (0.3, 0)]
    restored.add(2, 3, 0.5, day=1)
    assert rated_supernodes(restored, 2) == [3]
    assert live_count(restored) == 4


@pytest.mark.parametrize("column, index, bad, message", [
    ("log_pair", 1, 5, "entry 1 names no pair"),
    ("log_pair", 2, -1, "entry 2 names no pair"),
    ("log_value", 2, 1.5, r"entry 2 has a value outside \[0, 1\]"),
    ("log_day", 0, -3, "entry 0 has a negative day"),
])
def test_load_columns_names_the_bad_entry(column, index, bad, message):
    ledger = RatingLedger()
    ledger.add_many([1, 1, 2], [7, 8, 7], [0.1, 0.2, 0.3], day=0)
    columns = ledger.to_columns()
    columns[column][index] = bad
    fresh = RatingLedger()
    with pytest.raises(ValueError, match=message):
        fresh.load_columns(columns)
    assert live_count(fresh) == 0


def test_load_columns_checks_lengths_and_pairs():
    ledger = RatingLedger()
    ledger.add_many([1, 2], [7, 7], [0.1, 0.2], day=0)
    columns = ledger.to_columns()
    with pytest.raises(ValueError, match="rating log columns differ"):
        RatingLedger().load_columns({**columns, "log_day": [0]})
    with pytest.raises(ValueError, match="pair table columns differ"):
        RatingLedger().load_columns({**columns, "pair_player": [1]})
    with pytest.raises(ValueError, match=r"pair 0 \(1, 7\) appears again"):
        RatingLedger().load_columns({**columns, "pair_player": [1, 1]})
