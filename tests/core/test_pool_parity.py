"""Parity: the supernode table against the frozen per-node oracle.

``supernode_oracle.py`` holds the supernode as it ran as one object per
node, writing its ``available`` byte into a bound column store.  Each
example builds the same pool both ways, drives one random sequence of
connects, batched disconnects, failures, online flips and throttle
re-rolls through both, and asserts ``==`` after every step on each
row's load, connected set, availability byte, supported total and
throttle, on every failure's orphans, on which operations raise, and
on the throttle generators' states (the same uniforms were drawn).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import SupernodePool

from . import supernode_oracle as oracle

PLAYERS = st.integers(0, 11)


@st.composite
def tables(draw):
    size = draw(st.integers(1, 8))
    capacity = draw(st.lists(st.integers(1, 3), min_size=size,
                             max_size=size))
    throttle_class = draw(st.lists(st.sampled_from([1.0, 0.8, 0.5]),
                                   min_size=size, max_size=size))
    return capacity, throttle_class


def operations(size):
    row = st.integers(0, size - 1)
    return st.lists(st.one_of(
        st.tuples(st.just("connect"), row, PLAYERS),
        st.tuples(st.just("disconnect_many"), row,
                  st.lists(PLAYERS, max_size=5)),
        st.tuples(st.just("fail"), row),
        st.tuples(st.just("online"), st.lists(row, max_size=size),
                  st.booleans()),
        st.tuples(st.just("throttle"), st.integers(0, 2 ** 16),
                  st.sampled_from([0.0, 0.3, 0.5, 1.0]))),
        min_size=20, max_size=60)


def build(capacity, throttle_class):
    size = len(capacity)
    pool = SupernodePool(host_player=range(size), capacity=capacity,
                         upload_mbps=[10.0] * size, access_ms=[5.0] * size,
                         throttle_class=throttle_class)
    store = oracle.SupernodeColumns(size)
    nodes = []
    for sid in range(size):
        sn = oracle.Supernode(supernode_id=sid, host_player=sid,
                              capacity=capacity[sid], upload_mbps=10.0,
                              access_ms=5.0,
                              throttle_class=throttle_class[sid])
        sn.bind_columns(store)
        nodes.append(sn)
    return pool, nodes, store


def outcome(call):
    """``("ok", value)`` or the exception type the call raised."""
    try:
        return "ok", call()
    except (RuntimeError, ValueError) as exc:
        return type(exc), None


def assert_same(pool, nodes, store):
    assert [len(players) for players in pool.connected] \
        == [sn.load for sn in nodes]
    assert pool.connected == [sn.connected for sn in nodes]
    assert pool.available == store.available
    assert pool.supported_total.tolist() \
        == [sn.supported_total for sn in nodes]
    assert pool.online.tolist() == [sn.online for sn in nodes]
    assert pool.throttle.tolist() == [sn.throttle for sn in nodes]


@given(table=tables(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_pool_matches_oracle(table, data):
    pool, nodes, store = build(*table)
    for op in data.draw(operations(len(nodes))):
        kind = op[0]
        if kind == "connect":
            _, sid, player = op
            assert outcome(lambda: pool.connect(sid, player)) \
                == outcome(lambda: nodes[sid].connect(player))
        elif kind == "disconnect_many":
            _, sid, players = op
            pool.disconnect_many(sid, players)
            nodes[sid].disconnect_many(players)
        elif kind == "fail":
            _, sid = op
            assert pool.fail(sid) == nodes[sid].fail()
        elif kind == "online":
            _, sids, online = op
            pool.set_online(sids, online)
            for sid in sids:
                nodes[sid].online = online
        else:
            _, seed, probability = op
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            pool.roll_throttle(ours, probability)
            oracle.roll_pool_throttles(nodes, theirs, probability)
            assert ours.bit_generator.state == theirs.bit_generator.state
        assert_same(pool, nodes, store)
