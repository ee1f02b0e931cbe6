"""Property-based tests for candidate lists."""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateManager

from . import selection_oracle as oracle

candidate_lists = st.lists(
    st.tuples(st.integers(min_value=0, max_value=50),
              st.floats(min_value=0.0, max_value=200.0)),
    min_size=0, max_size=30)


@given(batches=st.lists(candidate_lists, min_size=1, max_size=5),
       max_entries=st.integers(min_value=1, max_value=10))
@settings(max_examples=100, deadline=None)
def test_property_list_invariants(batches, max_entries):
    """After any remember sequence: bounded size, sorted by delay,
    unique supernodes, and only remembered supernodes present."""
    manager = CandidateManager(max_entries=max_entries)
    seen: set[int] = set()
    for batch in batches:
        manager.remember(7, batch)
        seen |= {sn_id for sn_id, _ in batch}
    entries = manager.candidates(7)
    assert len(entries) <= max_entries
    delays = [e.delay_ms for e in entries]
    assert delays == sorted(delays)
    ids = [e.supernode_id for e in entries]
    assert len(ids) == len(set(ids))
    assert set(ids) <= seen


@given(batch=candidate_lists.filter(lambda b: len(b) > 0),
       victim=st.integers(min_value=0, max_value=50))
@settings(max_examples=100, deadline=None)
def test_property_forget_removes_only_the_victim(batch, victim):
    manager = CandidateManager(max_entries=50)
    manager.remember(1, batch)
    before = {e.supernode_id for e in manager.candidates(1)}
    manager.forget_supernodes({victim})
    after = {e.supernode_id for e in manager.candidates(1)}
    assert victim not in after
    assert after == before - {victim}


@st.composite
def remember_sequences(draw):
    """Remember and forget calls over a static probe geometry.

    Each supernode has one delay (few distinct values, so delays tie);
    a remembered pair re-probes at a new delay now and then, and a
    rare negative delay must raise.  Forget calls drop a few ids
    everywhere, as a failure wave does.
    """
    half_ms = st.integers(0, 12).map(lambda halves: halves / 2)
    geometry = draw(st.lists(half_ms, min_size=21, max_size=21))
    pair = st.integers(0, 20).flatmap(lambda sid: st.tuples(
        st.just(sid), st.sampled_from([geometry[sid]] * 6 + [-1.0])
        | half_ms))
    remember_call = st.tuples(st.just("remember"), st.integers(0, 3),
                              st.lists(pair, max_size=10))
    forget_call = st.tuples(st.just("forget"), st.none(),
                            st.sets(st.integers(0, 20), max_size=3))
    return draw(st.lists(remember_call | forget_call, min_size=1,
                         max_size=40))


@given(calls=remember_sequences(), max_entries=st.integers(1, 8))
@settings(max_examples=200, deadline=None)
def test_property_remember_equals_the_oracle(calls, max_entries):
    """The early-returning merge leaves every list equal to the frozen
    rebuild-and-sort merge, call after call."""
    live = CandidateManager(max_entries=max_entries)
    frozen = CandidateManager(max_entries=max_entries)
    for kind, player, arg in calls:
        if kind == "forget":
            live.forget_supernodes(arg)
            frozen.forget_supernodes(arg)
        else:
            raised = []
            for remember in (live.remember, partial(oracle.remember,
                                                    frozen)):
                try:
                    remember(player, arg)
                except ValueError:
                    raised.append(True)
            assert raised in ([], [True, True])
        assert live._lists == frozen._lists
