"""Tests for reputation-based supernode selection (§3.2)."""

import numpy as np
import pytest

from repro.core.columns import SupernodePool
from repro.core.selection import (
    SupernodeDirectory,
    delay_threshold_ms,
    select_supernode,
)
from repro.network.topology import build_topology
from repro.reputation.ratings import RatingLedger
from repro.reputation.scores import ReputationTable

from ..network import topology_oracle


@pytest.fixture()
def topology():
    return build_topology(np.random.default_rng(0), num_players=50,
                          num_datacenters=2)


def make_pool(topology, hosts, capacity=5):
    """A supernode table over ``hosts``, every row online."""
    hosts = np.asarray(hosts, dtype=np.int64)
    return SupernodePool(
        host_player=hosts, capacity=[capacity] * len(hosts),
        upload_mbps=[10.0] * len(hosts), access_ms=[4.0] * len(hosts),
        x_km=topology.player_coords[hosts, 0],
        y_km=topology.player_coords[hosts, 1])


def loads(pool):
    return [len(players) for players in pool.connected]


def test_delay_threshold_subtracts_margin():
    assert delay_threshold_ms(90.0, margin_ms=12.0) == pytest.approx(78.0)
    assert delay_threshold_ms(10.0, margin_ms=12.0) == 5.0  # floored
    with pytest.raises(ValueError):
        delay_threshold_ms(0.0)
    with pytest.raises(ValueError):
        delay_threshold_ms(50.0, margin_ms=-1.0)


def test_directory_candidates_are_nearest_available(topology):
    pool = make_pool(topology, hosts=[1, 2, 3, 4, 5])
    directory = SupernodeDirectory(topology, pool)
    candidates = directory.candidates_for(player=0, count=3)
    assert len(candidates) == 3
    # They must be the 3 closest by geography.
    distances = [topology_oracle.player_distance(
        topology, 0, int(pool.host_player[i])) for i in range(5)]
    expected = {int(i) for i in np.argsort(distances)[:3]}
    assert set(candidates) == expected


def test_directory_skips_full_supernodes(topology):
    pool = make_pool(topology, hosts=[1, 2], capacity=1)
    pool.connect(0, 99)
    directory = SupernodeDirectory(topology, pool)
    assert directory.candidates_for(0, 5) == [1]


def test_directory_count_validation(topology):
    directory = SupernodeDirectory(topology, make_pool(topology, []))
    with pytest.raises(ValueError):
        directory.candidates_for(0, 0)
    assert directory.candidates_for(0, 3) == []
    assert directory.probe_delays_ms(0, []) == []


def test_selection_connects_to_qualified_supernode(topology):
    pool = make_pool(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, pool)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=500.0, rng=rng)
    assert outcome.supernode_id is not None
    assert not outcome.used_cloud
    assert pool.connected[outcome.supernode_id] == {0}
    assert outcome.join_latency_ms > 0
    assert outcome.downstream_one_way_ms <= 500.0


def test_selection_falls_back_to_cloud_when_all_too_far(topology):
    pool = make_pool(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, pool)
    rng = np.random.default_rng(0)
    outcome = select_supernode(0, directory, l_max_ms=0.001 + 5.0 - 4.999,
                               rng=rng)
    # l_max so small nothing qualifies.
    assert outcome.used_cloud
    assert loads(pool) == [0, 0, 0]


def test_selection_rejects_bad_l_max(topology):
    directory = SupernodeDirectory(topology, make_pool(topology, []))
    with pytest.raises(ValueError):
        select_supernode(0, directory, l_max_ms=0.0,
                         rng=np.random.default_rng(0))


def test_selection_prefers_high_reputation(topology):
    directory = SupernodeDirectory(topology,
                                   make_pool(topology, hosts=[1, 2, 3]))
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
        directory = SupernodeDirectory(
            topology, make_pool(topology, hosts=[1, 2, 3]))
        outcome = select_supernode(0, directory, l_max_ms=500.0,
                                   rng=np.random.default_rng(seed))
        picks.add(outcome.supernode_id)
    assert len(picks) >= 2


def test_sequential_ask_skips_filled_candidate(topology):
    """§3.2.2: a candidate may fill up between cloud answer and connect."""
    pool = make_pool(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, pool)
    ledger = RatingLedger()
    ledger.add(0, 0, 0.9, day=0)  # player 0 loves supernode 0
    table = ReputationTable(ledger)
    table.refresh((0,), today=0)
    # Fill supernode 0 after the directory was built.
    pool.connect(0, 42)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               reputation=table)
    assert outcome.supernode_id == 1


def test_no_capacity_anywhere_falls_back_to_cloud(topology):
    pool = make_pool(topology, hosts=[1, 2], capacity=1)
    directory = SupernodeDirectory(topology, pool)
    for sid in range(2):
        pool.connect(sid, 90 + sid)
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0))
    assert outcome.used_cloud


def test_join_latency_includes_cloud_round_trip(topology):
    directory = SupernodeDirectory(topology, make_pool(topology, hosts=[1]))
    outcome = select_supernode(0, directory, l_max_ms=500.0,
                               rng=np.random.default_rng(0),
                               cloud_rtt_ms=123.0)
    assert outcome.join_latency_ms >= 123.0


def test_directory_members_are_the_online_rows(topology):
    pool = make_pool(topology, hosts=[1, 2, 3])
    directory = SupernodeDirectory(topology, pool)
    assert sorted(directory.candidates_for(0, 5)) == [0, 1, 2]
    pool.set_online([1, 2], False)
    assert directory.candidates_for(0, 5) == [0]
    pool.set_online([2], True)
    assert sorted(directory.candidates_for(0, 5)) == [0, 2]


@pytest.fixture()
def big_topology():
    return build_topology(np.random.default_rng(3), num_players=200,
                          num_datacenters=3)


def brute_force_nearest(directory, player, count):
    """Reference lookup: (distance², pool id)-sort every online row
    with a free slot."""
    pool = directory.pool
    px, py = directory.topology.player_coords[player].tolist()
    available = []
    for sid, (x, y) in enumerate(zip(pool.x_km.tolist(),
                                     pool.y_km.tolist())):
        if pool.online[sid] and len(pool.connected[sid]) < \
                pool.capacity[sid]:
            dx, dy = x - px, y - py
            available.append((dx * dx + dy * dy, sid))
    available.sort()
    return [sid for _, sid in available[:count]]


def test_lookup_matches_brute_force(big_topology):
    """The ranking walk returns exactly the k nearest available nodes."""
    directory = SupernodeDirectory(
        big_topology, make_pool(big_topology, hosts=list(range(0, 120, 2))))
    for player in range(0, 200, 7):
        for count in (1, 4, 8, 61):
            got = directory.candidates_for(player, count)
            assert got == brute_force_nearest(directory, player, count)


def test_lookup_respects_incremental_capacity(big_topology):
    """Filling nodes between lookups changes results without a rebuild."""
    pool = make_pool(big_topology, hosts=list(range(0, 40, 2)), capacity=1)
    directory = SupernodeDirectory(big_topology, pool)
    first = directory.candidates_for(0, 3)
    for sid in first:
        pool.connect(sid, 900 + sid)  # fill the closest three
    second = directory.candidates_for(0, 3)
    assert not set(first) & set(second)
    assert second == brute_force_nearest(directory, 0, 3)


def test_lookup_after_failure_matches_fresh_construction(big_topology):
    """A directory whose ranking predates a failure answers like one
    built over a fresh pool with the failed rows offline."""
    hosts = list(range(0, 90, 3))
    pool = make_pool(big_topology, hosts=hosts)
    directory = SupernodeDirectory(big_topology, pool)
    directory.candidates_for(0, 6)  # build the ranking first
    failed = list(range(0, len(hosts), 4))
    for sid in failed:
        pool.fail(sid)
    fresh_pool = make_pool(big_topology, hosts=hosts)
    fresh_pool.set_online(failed, False)
    fresh = SupernodeDirectory(big_topology, fresh_pool)
    survivors = [sid for sid in range(len(hosts)) if sid not in failed]
    for player in range(0, 200, 11):
        assert directory.candidates_for(player, 6) == \
            fresh.candidates_for(player, 6)
        assert directory.probe_delays_ms(player, survivors[:5]) == \
            fresh.probe_delays_ms(player, survivors[:5])


def test_lookup_handles_single_supernode_pool(topology):
    """A one-supernode pool ranks one row; lookups still work."""
    directory = SupernodeDirectory(topology, make_pool(topology, hosts=[4]))
    assert directory.candidates_for(0, 8) == [0]


def test_lookup_falls_back_when_the_ranking_prefix_is_saturated(
        big_topology):
    """A prefix with too few free rows hands over to the exact scan."""
    pool = make_pool(big_topology, hosts=list(range(120)), capacity=1)
    directory = SupernodeDirectory(big_topology, pool)
    width = directory._pool_ranking(1).shape[1]
    assert width < len(pool)
    # Fill every supernode in player 0's cached prefix.
    for sid in directory._pool_ranking(1)[0].tolist():
        pool.connect(sid, 1000 + sid)
    got = directory.candidates_for(0, 1)
    assert got == brute_force_nearest(directory, 0, 1)
    assert got[0] not in directory._pool_ranking(1)[0].tolist()


def test_lookup_breaks_distance_ties_by_pool_id(big_topology):
    """Co-located hosts tie exactly; the lower pool id ranks first."""
    pool = make_pool(big_topology, hosts=[3, 9] + [7] * 6)
    directory = SupernodeDirectory(big_topology, pool)
    assert directory.candidates_for(7, 4) == [2, 3, 4, 5]
    pool.set_online([3], False)
    assert directory.candidates_for(7, 4) == [2, 4, 5, 6]
