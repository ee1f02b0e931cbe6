"""Edge-case tests for the discrete-event engine."""

import pytest

from .engine_oracle import Environment


def test_run_until_failing_event_raises():
    env = Environment()
    doomed = env.event()

    def failer(env):
        yield env.timeout(1)
        doomed.fail(ConnectionError("uplink died"))

    env.process(failer(env))
    with pytest.raises(ConnectionError, match="uplink died"):
        env.run(until=doomed)


def test_run_until_unreachable_event_raises():
    env = Environment()
    never = env.event()
    env.timeout(1)  # something to process, then silence
    with pytest.raises(RuntimeError, match="never fired"):
        env.run(until=never)


def test_defused_failure_does_not_crash_run():
    env = Environment()
    handled = env.event()
    handled.fail(ValueError("handled elsewhere"))
    handled.defuse()
    env.run()  # no exception


def test_process_waiting_on_finished_process():
    env = Environment()
    log = []

    def quick(env):
        yield env.timeout(1)
        return "done"

    def late_joiner(env, target):
        yield env.timeout(5)  # target finished long ago
        value = yield target
        log.append((env.now, value))

    target = env.process(quick(env))
    env.process(late_joiner(env, target))
    env.run()
    assert log == [(5.0, "done")]


def test_zero_delay_timeout_processes_in_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(0)
        order.append(name)

    env.process(proc(env, "first"))
    env.process(proc(env, "second"))
    env.run()
    assert order == ["first", "second"]
    assert env.now == 0.0
