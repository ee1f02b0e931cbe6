"""The DES event counter follows the observability switch.

``Environment.run`` adds the events it processed to
``repro_des_events_total`` of the registry that is live when it
returns, so an ``Environment`` built before an ``enable`` is counted,
one run after a ``disable`` touches no dead registry, and each
``enable`` starts from a fresh count.
"""

from repro import obs
from repro.sim.engine import Environment


def _two_timeouts(env):
    yield env.timeout(1.0)
    yield env.timeout(2.0)


def _drive(env):
    env.process(_two_timeouts(env))
    env.run()


def test_environment_constructed_before_enable_is_counted():
    env = Environment()  # bound to the null registry at construction
    _, registry = obs.enable()
    _drive(env)
    assert env.events_processed > 0
    assert registry.counter("repro_des_events_total").value \
        == env.events_processed


def test_disable_rebinds_back_to_null():
    _, registry = obs.enable()
    env = Environment()
    obs.disable()
    _drive(env)  # must not touch the (now dead) live registry
    assert env.events_processed > 0
    assert registry.counter("repro_des_events_total").value == 0


def test_each_enable_gets_a_fresh_registry():
    env = Environment()
    _, first = obs.enable()
    _drive(env)
    first_count = first.counter("repro_des_events_total").value
    assert first_count == env.events_processed
    _, second = obs.enable()  # re-enable: fresh registry, re-bound
    _drive(env)
    assert second is not first
    assert first.counter("repro_des_events_total").value == first_count
    assert second.counter("repro_des_events_total").value > 0
