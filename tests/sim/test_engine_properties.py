"""Property-based tests for the discrete-event engine."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Environment

from ..streaming.multiplex_oracle import Resource


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1000.0),
                       min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_property_events_fire_in_time_order(delays):
    """Completion order is sorted by time, FIFO within equal times."""
    env = Environment()
    completions = []

    def waiter(env, index, delay):
        yield env.timeout(delay)
        completions.append((env.now, index))

    for index, delay in enumerate(delays):
        env.process(waiter(env, index, delay))
    env.run()

    assert len(completions) == len(delays)
    times = [t for t, _ in completions]
    assert times == sorted(times)
    # FIFO tie-break: among equal times, creation order is preserved.
    for time_value in set(times):
        indices = [i for t, i in completions if t == time_value]
        assert indices == sorted(indices)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=30))
@settings(max_examples=100, deadline=None)
def test_property_sequential_timeouts_sum(delays):
    """A process sleeping k times ends at the exact sum of its delays."""
    env = Environment()
    finish = []

    def sleeper(env):
        for delay in delays:
            yield env.timeout(delay)
        finish.append(env.now)

    env.process(sleeper(env))
    env.run()
    assert finish[0] == sum(delays)


@given(capacity=st.integers(min_value=1, max_value=5),
       holds=st.lists(st.floats(min_value=0.1, max_value=5.0),
                      min_size=1, max_size=25))
@settings(max_examples=100, deadline=None)
def test_property_resource_never_exceeds_capacity(capacity, holds):
    """Concurrent users never exceed the resource capacity."""
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_seen = [0]

    def user(env, hold):
        with resource.request() as req:
            yield req
            max_seen[0] = max(max_seen[0], resource.count)
            yield env.timeout(hold)

    for hold in holds:
        env.process(user(env, hold))
    env.run()
    assert max_seen[0] <= capacity
    assert resource.count == 0  # everything released


@given(holds=st.lists(st.floats(min_value=0.1, max_value=3.0),
                      min_size=2, max_size=20))
@settings(max_examples=50, deadline=None)
def test_property_unit_resource_serialises_fifo(holds):
    """With capacity 1, grant order equals request order."""
    env = Environment()
    resource = Resource(env, capacity=1)
    order = []

    def user(env, index, hold):
        # Stagger requests so arrival order is well-defined.
        yield env.timeout(index * 1e-6)
        with resource.request() as req:
            yield req
            order.append(index)
            yield env.timeout(hold)

    for index, hold in enumerate(holds):
        env.process(user(env, index, hold))
    env.run()
    assert order == list(range(len(holds)))
