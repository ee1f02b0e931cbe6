"""Property-based tests for the directory's candidate lookup (§3.2).

The lookup walks a cached per-player ranking of the pool and falls back
to an exact scan when local saturation exhausts the cached prefix; both
must agree with a brute-force k-nearest-available search in (distance²,
pool id) order, whatever the pool geometry, availability and directory
membership.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SupernodeColumns
from repro.core.entities import Supernode
from repro.core.selection import SupernodeDirectory, select_supernode
from repro.network.topology import build_topology

TOPOLOGY = build_topology(np.random.default_rng(5), num_players=40,
                          num_datacenters=2)


def brute_force(topology, members, player, count):
    """(distance², pool id)-sorted ids of the available members."""
    px, py = topology.player_coords[player].tolist()
    ranked = []
    for sn in members:
        if sn.has_capacity:
            dx, dy = sn.x_km - px, sn.y_km - py
            ranked.append((dx * dx + dy * dy, sn.supernode_id))
    ranked.sort()
    return [sid for _, sid in ranked[:count]]


@st.composite
def pools(draw):
    """A bound pool (up to 90 rows, so wider than small-count ranking
    prefixes), its directory members and a random availability mask.

    Few distinct hosts force co-located supernodes, i.e. exact distance
    ties; the saturation level runs from a fresh pool to one with
    nearly every row full or offline, which exhausts ranking prefixes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 90))
    hosts = rng.integers(0, draw(st.integers(1, 40)), size=size)
    store = SupernodeColumns(size)
    pool = []
    for sid, host in enumerate(hosts.tolist()):
        sn = Supernode(supernode_id=sid, host_player=host, capacity=1,
                       upload_mbps=10.0,
                       access_ms=float(rng.uniform(0.5, 6.0)),
                       x_km=float(TOPOLOGY.player_coords[host, 0]),
                       y_km=float(TOPOLOGY.player_coords[host, 1]))
        sn.bind_columns(store)
        pool.append(sn)
    saturation = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9, 0.97, 1.0]))
    for sn in pool:
        if rng.random() < saturation:
            if rng.random() < 0.5:
                sn.connect(1000 + sn.supernode_id)
            else:
                sn.online = False
    # Members in shuffled order: ties must break by pool id, not by
    # the directory's listing order.
    keep = rng.random(size) < draw(st.sampled_from([0.5, 1.0]))
    members = [pool[int(i)] for i in rng.permutation(size) if keep[i]]
    return pool, members


@given(scenario=pools(), count=st.integers(1, 10))
@settings(max_examples=150, deadline=None)
def test_property_lookup_is_exact_k_nearest_available(scenario, count):
    pool, members = scenario
    directory = SupernodeDirectory(TOPOLOGY, pool)
    directory.rebuild(members)
    for player in range(TOPOLOGY.num_players):
        got = [sn.supernode_id
               for sn in directory.candidates_for(player, count)]
        assert got == brute_force(TOPOLOGY, members, player, count)


@given(scenario=pools(), count=st.integers(1, 8),
       exclude=st.sets(st.integers(0, 89), max_size=12),
       l_max=st.floats(5.0, 120.0))
@settings(max_examples=100, deadline=None)
def test_property_selection_probes_the_exact_candidates(
        scenario, count, exclude, l_max):
    """select_supernode probes the brute-force candidates minus the
    excluded ids, with delays bit-identical to the topology's
    vectorised latency matrix."""
    pool, members = scenario
    directory = SupernodeDirectory(TOPOLOGY, members)
    player = 3
    expected = [sid for sid in brute_force(TOPOLOGY, members, player,
                                           count)
                if sid not in exclude]
    reference = TOPOLOGY.players_to_points_one_way_ms(
        np.array([player]),
        np.array([[pool[sid].x_km, pool[sid].y_km]
                  for sid in expected]).reshape(-1, 2),
        np.array([pool[sid].access_ms for sid in expected]))[0].tolist()
    probed = directory.probe_delays_ms(player,
                                       [pool[sid] for sid in expected])
    assert probed == reference
    outcome = select_supernode(player, directory, l_max,
                               np.random.default_rng(0), exclude=exclude,
                               candidate_count=count)
    assert outcome.candidates_probed == len(expected)
    assert list(outcome.qualified) == [
        (sid, delay) for sid, delay in zip(expected, reference)
        if delay <= l_max]
