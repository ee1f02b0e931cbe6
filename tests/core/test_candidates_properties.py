"""Property-based tests for candidate lists."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import CandidateManager

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
