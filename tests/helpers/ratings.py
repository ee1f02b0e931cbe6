"""Read a :class:`~repro.reputation.ratings.RatingLedger` in tests."""

import numpy as np


def live_ratings(ledger, player, supernode):
    """``(value, day)`` of the pair's live ratings, oldest first."""
    pair = ledger.pair_id(player, supernode)
    if pair is None:
        return []
    _, values, days = ledger.live_entries(np.array([pair]))
    return list(zip(values.tolist(), days.tolist()))


def live_count(ledger):
    """How many ratings the ledger holds past its per-pair cap."""
    pairs = np.arange(len(list(ledger.pairs())))
    rows, _, _ = ledger.live_entries(pairs)
    return len(rows)


def rated_supernodes(ledger, player):
    """The supernodes ``player`` has ever rated, ascending."""
    return sorted(sn for rater, sn in ledger.pairs() if rater == player)
