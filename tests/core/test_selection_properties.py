"""Property-based tests for the directory's candidate lookup (§3.2).

The lookup walks a cached per-player ranking of the pool and falls back
to an exact scan when local saturation exhausts the cached prefix; both
must agree with a brute-force k-nearest-available search in (distance²,
pool id) order, whatever the pool geometry, load and online rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SupernodePool
from repro.core.selection import SupernodeDirectory, select_supernode
from repro.network.topology import build_topology

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


@st.composite
def pools(draw):
    """A pool (up to 90 rows, so wider than small-count ranking
    prefixes) with random full and offline rows.

    Few distinct hosts force co-located supernodes, i.e. exact distance
    ties; the saturation level runs from a fresh pool to one with
    nearly every row full or offline, which exhausts ranking prefixes.
    Half the pools also take a random subset of rows offline, so the
    directory's members are a subset of the pool.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 90))
    hosts = rng.integers(0, draw(st.integers(1, 40)), size=size)
    pool = SupernodePool(
        host_player=hosts, capacity=[1] * size, upload_mbps=[10.0] * size,
        access_ms=rng.uniform(0.5, 6.0, size=size),
        x_km=TOPOLOGY.player_coords[hosts, 0],
        y_km=TOPOLOGY.player_coords[hosts, 1])
    saturation = draw(st.sampled_from([0.0, 0.3, 0.7, 0.9, 0.97, 1.0]))
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


@given(pool=pools(), count=st.integers(1, 8),
       exclude=st.sets(st.integers(0, 89), max_size=12),
       l_max=st.floats(5.0, 120.0))
@settings(max_examples=100, deadline=None)
def test_property_selection_probes_the_exact_candidates(
        pool, count, exclude, l_max):
    """select_supernode probes the brute-force candidates minus the
    excluded ids, with delays bit-identical to the topology's
    vectorised latency matrix."""
    directory = SupernodeDirectory(TOPOLOGY, pool)
    player = 3
    expected = [sid for sid in brute_force(TOPOLOGY, pool, player, count)
                if sid not in exclude]
    reference = TOPOLOGY.players_to_points_one_way_ms(
        np.array([player]),
        np.column_stack((pool.x_km[expected], pool.y_km[expected])),
        pool.access_ms[expected])[0].tolist()
    assert directory.probe_delays_ms(player, expected) == reference
    outcome = select_supernode(player, directory, l_max,
                               np.random.default_rng(0), exclude=exclude,
                               candidate_count=count)
    assert outcome.candidates_probed == len(expected)
    assert list(outcome.qualified) == [
        (sid, delay) for sid, delay in zip(expected, reference)
        if delay <= l_max]
