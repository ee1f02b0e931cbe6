"""Tests for reputation-based supernode selection (§3.2)."""

import numpy as np
import pytest

from repro.core.columns import SupernodeColumns
from repro.core.entities import Supernode
from repro.core.selection import (
    SupernodeDirectory,
    delay_threshold_ms,
    select_supernode,
)
from repro.network.topology import build_topology
from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import ReputationTable


@pytest.fixture()
def topology():
    return build_topology(np.random.default_rng(0), num_players=50,
                          num_datacenters=2)


def make_supernodes(topology, hosts, capacity=5):
    """A pool of supernodes bound to one columnar store, as in a run."""
    supernodes = [
        Supernode(supernode_id=i, host_player=h, capacity=capacity,
                  upload_mbps=10.0, access_ms=4.0,
                  x_km=float(topology.player_coords[h, 0]),
                  y_km=float(topology.player_coords[h, 1]))
        for i, h in enumerate(hosts)]
    store = SupernodeColumns(len(supernodes))
    for sn in supernodes:
        sn.bind_columns(store)
    return supernodes


def test_delay_threshold_subtracts_margin():
    assert delay_threshold_ms(90.0, margin_ms=12.0) == pytest.approx(78.0)
    assert delay_threshold_ms(10.0, margin_ms=12.0) == 5.0  # floored
    with pytest.raises(ValueError):
        delay_threshold_ms(0.0)
    with pytest.raises(ValueError):
        delay_threshold_ms(50.0, margin_ms=-1.0)


def test_directory_candidates_are_nearest_available(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3, 4, 5])
    directory = SupernodeDirectory(topology, supernodes)
    candidates = directory.candidates_for(player=0, count=3)
    assert len(candidates) == 3
    # They must be the 3 closest by geography.
    distances = [topology.player_distance(0, supernodes[i].host_player)
                 for i in range(5)]
    expected = {int(i) for i in np.argsort(distances)[:3]}
    assert {sn.supernode_id for sn in candidates} == expected


def test_directory_skips_full_supernodes(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    supernodes[0].connect(99)
    directory = SupernodeDirectory(topology, supernodes)
    assert [sn.supernode_id for sn in directory.candidates_for(0, 5)] == [1]


def test_directory_count_validation(topology):
    directory = SupernodeDirectory(topology, [])
    with pytest.raises(ValueError):
        directory.candidates_for(0, 0)
    assert directory.candidates_for(0, 3) == []
    assert directory.probe_delays_ms(0, []) == []


def test_selection_connects_to_qualified_supernode(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=500.0, rng=rng)
    assert outcome.supernode_id is not None
    assert not outcome.used_cloud
    assert supernodes[outcome.supernode_id].load == 1
    assert outcome.join_latency_ms > 0
    assert outcome.downstream_one_way_ms <= 500.0


def test_selection_falls_back_to_cloud_when_all_too_far(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=0.001 + 5.0 - 4.999,
                               rng=rng)
    # l_max so small nothing qualifies.
    assert outcome.used_cloud
    assert all(sn.load == 0 for sn in supernodes)


def test_selection_rejects_bad_l_max(topology):
    directory = SupernodeDirectory(topology, [])
    with pytest.raises(ValueError):
        select_supernode(0, directory, l_max_ms=0.0,
                         rng=np.random.default_rng(0))


def test_selection_prefers_high_reputation(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    ledger = RatingLedger()
    # Player 0 had great sessions with supernode 2, bad with the others.
    ledger.add(0, 2, 0.99, day=0)
    ledger.add(0, 0, 0.10, day=0)
    ledger.add(0, 1, 0.10, day=0)
    table = ReputationTable(ledger)
    table.refresh((0,), today=0)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               reputation=table)
    assert outcome.supernode_id == 2


def test_selection_random_without_reputation_varies(topology):
    """CloudFog/B picks randomly among qualified candidates."""
    picks = set()
    for seed in range(20):
        supernodes = make_supernodes(topology, hosts=[1, 2, 3])
        directory = SupernodeDirectory(topology, supernodes)
        outcome = select_supernode(0, directory, l_max_ms=500.0,
                                   rng=np.random.default_rng(seed))
        picks.add(outcome.supernode_id)
    assert len(picks) >= 2


def test_sequential_ask_skips_filled_candidate(topology):
    """§3.2.2: a candidate may fill up between cloud answer and connect."""
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, supernodes)
    ledger = RatingLedger()
    ledger.add(0, 0, 0.9, day=0)  # player 0 loves supernode 0
    table = ReputationTable(ledger)
    table.refresh((0,), today=0)
    # Fill supernode 0 after the directory snapshot.
    supernodes[0].connect(42)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               reputation=table)
    assert outcome.supernode_id == 1


def test_no_capacity_anywhere_falls_back_to_cloud(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, supernodes)
    for sn in supernodes:
        sn.connect(90 + sn.supernode_id)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0))
    assert outcome.used_cloud


def test_join_latency_includes_cloud_round_trip(topology):
    supernodes = make_supernodes(topology, hosts=[1])
    directory = SupernodeDirectory(topology, supernodes)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               cloud_rtt_ms=123.0)
    assert outcome.join_latency_ms >= 123.0


def test_directory_rebuild_replaces_set(topology):
    supernodes = make_supernodes(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, supernodes)
    assert len(directory) == 3
    directory.rebuild(supernodes[:1])
    assert len(directory) == 1
    assert [sn.supernode_id for sn in directory.candidates_for(0, 5)] == [0]


@pytest.fixture()
def big_topology():
    return build_topology(np.random.default_rng(3), num_players=200,
                          num_datacenters=3)


def brute_force_nearest(directory, player, count):
    """Reference lookup: (distance², pool id)-sort every available
    supernode of the directory."""
    px, py = directory.topology.player_coords[player].tolist()
    available = []
    for sn in directory.supernodes:
        if sn.has_capacity:
            dx, dy = sn.x_km - px, sn.y_km - py
            available.append((dx * dx + dy * dy, sn.supernode_id))
    available.sort()
    return [sid for _, sid in available[:count]]


def test_lookup_matches_brute_force(big_topology):
    """The ranking walk returns exactly the k nearest available nodes."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 120, 2)))
    directory = SupernodeDirectory(big_topology, supernodes)
    for player in range(0, 200, 7):
        for count in (1, 4, 8, 61):
            got = [sn.supernode_id
                   for sn in directory.candidates_for(player, count)]
            assert got == brute_force_nearest(directory, player, count)


def test_lookup_respects_incremental_capacity(big_topology):
    """Filling nodes between lookups changes results without a rebuild."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 40, 2)),
                                 capacity=1)
    directory = SupernodeDirectory(big_topology, supernodes)
    first = directory.candidates_for(0, 3)
    for sn in first:
        sn.connect(900 + sn.supernode_id)  # fill the closest three
    second = directory.candidates_for(0, 3)
    assert not set(sn.supernode_id for sn in first) & \
        set(sn.supernode_id for sn in second)
    assert [sn.supernode_id for sn in second] == \
        brute_force_nearest(directory, 0, 3)


def test_rebuild_after_failure_matches_fresh_construction(big_topology):
    """Regression: rebuild() must leave no stale index state behind."""
    supernodes = make_supernodes(big_topology, hosts=list(range(0, 90, 3)))
    directory = SupernodeDirectory(big_topology, supernodes)
    survivors = [sn for i, sn in enumerate(supernodes) if i % 4 != 0]
    directory.rebuild(survivors)
    fresh = SupernodeDirectory(big_topology, survivors)
    assert len(directory) == len(fresh) == len(survivors)
    for player in range(0, 200, 11):
        assert [sn.supernode_id
                for sn in directory.candidates_for(player, 6)] == \
            [sn.supernode_id for sn in fresh.candidates_for(player, 6)]
        assert directory.probe_delays_ms(player, survivors[:5]) == \
            fresh.probe_delays_ms(player, survivors[:5])


def test_lookup_handles_single_supernode_pool(topology):
    """A one-supernode pool ranks one row; lookups still work."""
    supernodes = make_supernodes(topology, hosts=[4])
    directory = SupernodeDirectory(topology, supernodes)
    assert [sn.supernode_id
            for sn in directory.candidates_for(0, 8)] == [0]


def test_lookup_falls_back_when_the_ranking_prefix_is_saturated(
        big_topology):
    """A prefix with too few free rows hands over to the exact scan."""
    supernodes = make_supernodes(big_topology, hosts=list(range(120)),
                                 capacity=1)
    directory = SupernodeDirectory(big_topology, supernodes)
    width = directory._pool_ranking(1).shape[1]
    assert width < len(supernodes)
    # Fill every supernode in player 0's cached prefix.
    for sid in directory._pool_ranking(1)[0].tolist():
        supernodes[sid].connect(1000 + sid)
    got = [sn.supernode_id for sn in directory.candidates_for(0, 1)]
    assert got == brute_force_nearest(directory, 0, 1)
    assert got[0] not in directory._pool_ranking(1)[0].tolist()


def test_lookup_breaks_distance_ties_by_pool_id(big_topology):
    """Co-located hosts tie exactly; the lower pool id ranks first,
    whatever order the directory lists them in."""
    supernodes = make_supernodes(big_topology, hosts=[7] * 6 + [3, 9])
    directory = SupernodeDirectory(big_topology, supernodes[::-1])
    got = [sn.supernode_id for sn in directory.candidates_for(7, 4)]
    assert got == [0, 1, 2, 3]


def test_standalone_supernodes_bind_to_a_private_store(topology):
    supernodes = [
        Supernode(supernode_id=i, host_player=h, capacity=2,
                  upload_mbps=10.0, access_ms=4.0,
                  x_km=float(topology.player_coords[h, 0]),
                  y_km=float(topology.player_coords[h, 1]))
        for i, h in enumerate([1, 2, 3])]
    assert all(sn.columns is None for sn in supernodes)
    directory = SupernodeDirectory(topology, supernodes)
    store = supernodes[0].columns
    assert store is not None
    assert all(sn.columns is store for sn in supernodes)
    assert [sn.supernode_id for sn in directory.candidates_for(0, 3)] == \
        brute_force_nearest(directory, 0, 3)


def test_mixed_supernode_sets_are_rejected(topology):
    bound = make_supernodes(topology, hosts=[1, 2])
    stray = make_supernodes(topology, hosts=[3])
    with pytest.raises(ValueError, match="bind_columns"):
        SupernodeDirectory(topology, bound + stray)
    duplicate = [
        Supernode(supernode_id=0, host_player=h, capacity=2,
                  upload_mbps=10.0, access_ms=4.0)
        for h in (1, 2)]
    with pytest.raises(ValueError, match="distinct"):
        SupernodeDirectory(topology, duplicate)
