"""Property-based tests for the directory's candidate lookup and the
one-pass selection (§3.2).

The lookup walks a cached per-player ranking of the pool and falls back
to an exact scan when local saturation exhausts the cached prefix; both
must agree with a brute-force k-nearest-available search in (distance²,
pool id) order, whatever the pool geometry, load and online rows.  The
selection must equal the frozen sort-then-ask oracle
(``selection_oracle.py``) on every pool, reputation table and join
sequence.
"""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SupernodePool
from repro.core.selection import SupernodeDirectory, select_supernode
from repro.network.topology import build_topology
from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import ReputationTable

from . import selection_oracle as oracle

TOPOLOGY = build_topology(np.random.default_rng(5), num_players=40,
                          num_datacenters=2)


def brute_force(topology, pool, player, count):
    """(distance², pool id)-sorted ids of the online rows with a free
    slot."""
    px, py = topology.player_coords[player].tolist()
    ranked = []
    for sid, (x, y) in enumerate(zip(pool.x_km.tolist(),
                                     pool.y_km.tolist())):
        if pool.online[sid] and len(pool.connected[sid]) < \
                pool.capacity[sid]:
            dx, dy = x - px, y - py
            ranked.append((dx * dx + dy * dy, sid))
    ranked.sort()
    return [sid for _, sid in ranked[:count]]


#: Shares of rows made full or offline, from a fresh pool to one that
#: exhausts every ranking prefix.
SATURATIONS = (0.0, 0.3, 0.7, 0.9, 0.97, 1.0)


@st.composite
def pools(draw, saturations=st.sampled_from(SATURATIONS)):
    """A pool (up to 90 rows, so wider than small-count ranking
    prefixes) with random full and offline rows.

    Few distinct hosts force co-located supernodes, i.e. exact distance
    ties; half the pools also draw access delays from two values, so
    co-located rows tie on probe delay too.  The saturation level runs
    from a fresh pool to one with nearly every row full or offline,
    which exhausts ranking prefixes.  Half the pools also take a random
    subset of rows offline, so the directory's members are a subset of
    the pool.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 90))
    hosts = rng.integers(0, draw(st.integers(1, 40)), size=size)
    access = (rng.choice([0.5, 2.0], size=size) if draw(st.booleans())
              else rng.uniform(0.5, 6.0, size=size))
    pool = SupernodePool(
        host_player=hosts, capacity=[1] * size, upload_mbps=[10.0] * size,
        access_ms=access, x_km=TOPOLOGY.player_coords[hosts, 0],
        y_km=TOPOLOGY.player_coords[hosts, 1])
    saturation = draw(saturations)
    for sid in range(size):
        if rng.random() < saturation:
            if rng.random() < 0.5:
                pool.connect(sid, 1000 + sid)
            else:
                pool.set_online([sid], False)
    keep = rng.random(size) < draw(st.sampled_from([0.5, 1.0]))
    pool.set_online(np.flatnonzero(~keep), False)
    return pool


@given(pool=pools(), count=st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_property_lookup_is_exact_k_nearest_available(pool, count):
    directory = SupernodeDirectory(TOPOLOGY, pool)
    for player in range(TOPOLOGY.num_players):
        assert directory.candidates_for(player, count) == \
            brute_force(TOPOLOGY, pool, player, count)


@given(pool=pools(), count=st.integers(1, 8), l_max=st.floats(5.0, 120.0))
@settings(max_examples=100, deadline=None)
def test_property_selection_probes_the_exact_candidates(pool, count, l_max):
    """select_supernode probes the brute-force candidates, with delays
    bit-identical to the topology's vectorised latency matrix: the
    qualified ones carry them, and the slowest sets the probe round of
    the join latency."""
    directory = SupernodeDirectory(TOPOLOGY, pool)
    player = 3
    expected = brute_force(TOPOLOGY, pool, player, count)
    reference = TOPOLOGY.players_to_points_one_way_ms(
        np.array([player]),
        np.column_stack((pool.x_km[expected], pool.y_km[expected])),
        pool.access_ms[expected])[0].tolist()
    outcome = select_supernode(player, directory, l_max,
                               np.random.default_rng(0),
                               candidate_count=count)
    assert outcome.candidates_probed == len(expected)
    assert list(outcome.qualified) == [
        (sid, delay) for sid, delay in zip(expected, reference)
        if delay <= l_max]
    probe_round = 2.0 * max(reference) if reference else 0.0
    latency = 60.0 + probe_round
    if outcome.supernode_id is not None:
        latency += 10.0 + outcome.downstream_one_way_ms
    assert outcome.join_latency_ms == latency


def rated_table(ratings, prior: float) -> ReputationTable:
    """A reputation table over ``(player, supernode, value)`` ratings,
    all of day 0, refreshed for every player."""
    ledger = RatingLedger()
    for player, supernode, value in ratings:
        ledger.add(player, supernode, value, day=0)
    table = ReputationTable(ledger, neutral_prior=prior)
    table.refresh(range(TOPOLOGY.num_players), today=0)
    return table


def assert_selection_matches_oracle(pool, reputation, joins, count, seed):
    """Run ``joins`` — (player, L_max) pairs — through the live
    selection and the oracle on twin pools and generators; every
    outcome, generator state and pool state must be equal."""
    live_pool, frozen_pool = copy.deepcopy(pool), copy.deepcopy(pool)
    live = SupernodeDirectory(TOPOLOGY, live_pool)
    frozen = SupernodeDirectory(TOPOLOGY, frozen_pool)
    live_rng = np.random.default_rng(seed)
    frozen_rng = np.random.default_rng(seed)
    outcomes = []
    for player, l_max in joins:
        got = select_supernode(player, live, l_max, live_rng, reputation,
                               count)
        want = oracle.select_supernode(player, frozen, l_max, frozen_rng,
                                       reputation, count)
        assert got == dataclasses.astuple(want)
        assert live_rng.bit_generator.state == \
            frozen_rng.bit_generator.state
        assert live_pool.connected == frozen_pool.connected
        assert live_pool.available == frozen_pool.available
        outcomes.append(got)
    return outcomes


#: Ratings with few distinct values, so scores tie often.
ratings = st.lists(st.tuples(st.integers(0, 39), st.integers(0, 89),
                             st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                   max_size=80)

#: Joins of distinct players: (player, L_max).
join_sequences = st.lists(st.integers(0, 39), min_size=1, max_size=25,
                          unique=True).flatmap(
    lambda players: st.tuples(*(
        st.tuples(st.just(player), st.floats(5.0, 120.0))
        for player in players)))


@pytest.mark.parametrize("saturation", SATURATIONS)
@given(data=st.data(), count=st.integers(1, 8),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_property_fused_selection_equals_the_oracle(saturation, data, count,
                                                   seed):
    """One-pass selection == probe, sort, then ask in order: CloudFog/A
    with tied scores and delays, and CloudFog/B's random pick."""
    pool = data.draw(pools(st.just(saturation)), label="pool")
    reputation = data.draw(st.none() | st.builds(
        rated_table, ratings, st.sampled_from([0.0, 0.5, 0.9])),
        label="reputation")
    joins = data.draw(join_sequences, label="joins")
    assert_selection_matches_oracle(pool, reputation, joins, count, seed)


def four_host_pool() -> SupernodePool:
    """Four free supernodes on distinct hosts, equal access delays."""
    hosts = [5, 17, 29, 33]
    return SupernodePool(
        host_player=hosts, capacity=[2] * 4, upload_mbps=[10.0] * 4,
        access_ms=[1.0] * 4, x_km=TOPOLOGY.player_coords[hosts, 0],
        y_km=TOPOLOGY.player_coords[hosts, 1])


def test_fused_selection_keeps_delay_order_on_tied_scores():
    """Cold start: every candidate scores the prior, so the player takes
    the closest — the oracle's stable sort keeps delay order."""
    pool = four_host_pool()
    for prior in (0.0, 0.9):
        (outcome,) = assert_selection_matches_oracle(
            pool, rated_table([], prior), [(3, 500.0)], 4, 0)
        qualified = sorted(outcome.qualified, key=lambda pair: pair[1])
        assert outcome.supernode_id == qualified[0][0]


def test_fused_selection_scores_never_rated_rows_at_the_prior():
    """A rated row beats the never-rated ones only when its score tops
    the prior they get."""
    pool = four_host_pool()
    far = max(range(4), key=lambda sid: oracle.probe_delays_ms(
        SupernodeDirectory(TOPOLOGY, pool), 3, [sid])[0])
    for value, prior, picked_far in ((1.0, 0.9, True), (0.5, 0.9, False),
                                     (0.5, 0.0, True)):
        (outcome,) = assert_selection_matches_oracle(
            pool, rated_table([(3, far, value)], prior),
            [(3, 500.0)], 4, 0)
        assert (outcome.supernode_id == far) is picked_far
