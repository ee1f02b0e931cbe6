"""Property-based tests over the assembled system."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloudFogSystem, cloudfog_basic
from repro.core.entities import ConnectionKind
from repro.social.communities import modularity, paper_partition
from repro.social.graph import generate_friend_graph


@given(seed=st.integers(min_value=0, max_value=50),
       z=st.integers(min_value=1, max_value=12))
@settings(max_examples=25, deadline=None)
def test_property_modularity_bounded(seed, z):
    """Eq. 13 modularity of any produced partition lies in [-1, 1]."""
    rng = np.random.default_rng(seed)
    graph = generate_friend_graph(rng, 60)
    assignment = paper_partition(graph, z, rng, h1=20, h2=5)
    gamma = modularity(graph, assignment)
    assert -1.0 <= gamma <= 1.0
    assert set(assignment) == set(range(60))


@given(seed=st.integers(min_value=0, max_value=20))
@settings(max_examples=8, deadline=None)
def test_property_run_invariants(seed):
    """Any seeded small run preserves the core invariants."""
    system = CloudFogSystem(cloudfog_basic(num_players=60,
                                           num_supernodes=5, seed=seed))
    result = system.run(days=2)
    for day in result.days:
        assert day.online_players == (day.supernode_players
                                      + day.cloud_players)
        assert 0.0 <= day.mean_continuity <= 1.0
        assert 0.0 <= day.satisfied_ratio <= 1.0
        assert day.cloud_bandwidth_mbps >= 0.0
    for record in result.sessions:
        assert 0.0 <= record.continuity <= 1.0
        assert record.response_latency_ms > 0.0
        assert record.kind in (ConnectionKind.SUPERNODE,
                               ConnectionKind.CLOUD)
    # No supernode ever exceeds its advertised capacity.
    pool = system.state.supernode_pool
    for players, capacity in zip(pool.connected, pool.capacity.tolist()):
        assert len(players) <= capacity
