"""Unit tests for the Resource primitive."""

import pytest

from repro.sim.engine import Environment

from ..streaming.multiplex_oracle import Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def user(env, res, name, hold):
        with res.request() as req:
            yield req
            granted.append((name, env.now))
            yield env.timeout(hold)

    env.process(user(env, res, "a", 5))
    env.process(user(env, res, "b", 5))
    env.process(user(env, res, "c", 5))
    env.run()
    times = dict(granted)
    assert times["a"] == 0.0
    assert times["b"] == 0.0
    assert times["c"] == 5.0  # had to wait for a slot


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, res, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in ["first", "second", "third"]:
        env.process(user(env, res, name))
    env.run()
    assert order == ["first", "second", "third"]


def test_resource_count_tracks_usage():
    env = Environment()
    res = Resource(env, capacity=3)
    probes = []

    def user(env, res):
        with res.request() as req:
            yield req
            yield env.timeout(2)

    def probe(env, res):
        yield env.timeout(1)
        probes.append(res.count)
        yield env.timeout(2)
        probes.append(res.count)

    for _ in range(3):
        env.process(user(env, res))
    env.process(probe(env, res))
    env.run()
    assert probes == [3, 0]


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(ValueError):
        Resource(env, capacity=0)


def test_release_without_context_manager():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(3)
        res.release(req)

    def waiter(env, res):
        req = res.request()
        yield req
        log.append(env.now)
        res.release(req)

    env.process(holder(env, res))
    env.process(waiter(env, res))
    env.run()
    assert log == [3.0]


def test_cancel_queued_request_is_skipped():
    env = Environment()
    res = Resource(env, capacity=1)
    winners = []

    def holder(env, res):
        req = res.request()
        yield req
        yield env.timeout(5)
        res.release(req)

    def impatient(env, res):
        req = res.request()
        yield env.timeout(1)  # give up before being granted
        res.release(req)

    def patient(env, res):
        req = res.request()
        yield req
        winners.append(env.now)
        res.release(req)

    env.process(holder(env, res))
    env.process(impatient(env, res))
    env.process(patient(env, res))
    env.run()
    assert winners == [5.0]
