"""Unit tests for the discrete-event engine oracle."""

import pytest

from .engine_oracle import EmptySchedule, Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    observed = []

    def proc(env):
        yield env.timeout(3)
        observed.append(env.now)
        yield env.timeout(4.5)
        observed.append(env.now)

    env.process(proc(env))
    env.run()
    assert observed == [3.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    results = []

    def proc(env):
        value = yield env.timeout(1, value="segment")
        results.append(value)

    env.process(proc(env))
    env.run()
    assert results == ["segment"]


def test_run_until_time_stops_early():
    env = Environment()
    hits = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            hits.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert hits == [1.0, 2.0, 3.0]
    assert env.now == 3.5


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=2)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    result = env.run(until=env.process(proc(env)))
    assert result == 42
    assert env.now == 2.0


def test_run_until_already_processed_event():
    env = Environment()
    done = env.event()
    done.succeed("ready")
    env.run()  # processes the event
    assert env.run(until=done) == "ready"


def test_events_fire_in_time_order_with_fifo_ties():
    env = Environment()
    order = []

    def proc(env, name, delay):
        yield env.timeout(delay)
        order.append(name)

    env.process(proc(env, "b", 2))
    env.process(proc(env, "a", 1))
    env.process(proc(env, "tie1", 3))
    env.process(proc(env, "tie2", 3))
    env.run()
    assert order == ["a", "b", "tie1", "tie2"]


def test_event_succeed_wakes_waiter():
    env = Environment()
    done = env.event()
    results = []

    def waiter(env):
        value = yield done
        results.append((env.now, value))

    def firer(env):
        yield env.timeout(5)
        done.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert results == [(5.0, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)
    with pytest.raises(RuntimeError):
        event.fail(ValueError("late"))


def test_event_fail_propagates_into_process():
    env = Environment()
    broken = env.event()
    caught = []

    def waiter(env):
        try:
            yield broken
        except ValueError as error:
            caught.append(str(error))

    env.process(waiter(env))
    broken.fail(ValueError("link down"))
    env.run()
    assert caught == ["link down"]


def test_unhandled_event_failure_crashes_run():
    env = Environment()
    broken = env.event()
    broken.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_process_return_value_is_event_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return "done"

    def parent(env, results):
        value = yield env.process(child(env))
        results.append(value)

    results = []
    env.process(parent(env, results))
    env.run()
    assert results == ["done"]


def test_process_exception_propagates_to_parent():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        raise KeyError("missing")

    def parent(env, log):
        try:
            yield env.process(child(env))
        except KeyError:
            log.append("caught")

    log = []
    env.process(parent(env, log))
    env.run()
    assert log == ["caught"]


def test_uncaught_process_exception_crashes_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad state")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bad state"):
        env.run()


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="non-event"):
        env.run()


def test_step_on_empty_schedule_raises():
    env = Environment()
    with pytest.raises(EmptySchedule):
        env.step()


def test_peek_returns_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(7)
    assert env.peek() == 7.0


def test_many_processes_complete():
    env = Environment()
    finished = []

    def worker(env, i):
        yield env.timeout(i % 13 + 1)
        finished.append(i)

    for i in range(500):
        env.process(worker(env, i))
    env.run()
    assert len(finished) == 500


def test_event_value_before_trigger_raises():
    env = Environment()
    event = env.event()
    with pytest.raises(RuntimeError):
        _ = event.value
    with pytest.raises(RuntimeError):
        _ = event.ok
