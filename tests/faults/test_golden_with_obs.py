"""Acceptance pin: every golden digest holds with observability ON.

``tests/obs/conftest``-style hygiene is inlined here (this package has
no obs fixtures): every test enables the full five-pillar runtime and
restores the null state afterwards.  Together with
``test_equivalence.py`` (obs off) this proves the telemetry pipeline —
day-end flushes, event emission, gauge mirroring — perturbs no RNG
stream and no numeric output.
"""

import pytest

from repro import obs
from repro.core import CloudFogSystem

from ..helpers.events import held_events
from ..helpers.golden import fault_summary_digest, run_result_digest
from .regen_golden import CHAOS_SCENARIOS, SCENARIOS
from .test_equivalence import GOLDEN


@pytest.fixture(autouse=True)
def _full_observability():
    obs.enable()
    yield
    obs.disable()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_baseline_digests_hold_with_observability_on(name):
    result = CloudFogSystem(SCENARIOS[name]).run(days=2)
    assert run_result_digest(result) == GOLDEN[name]
    # the run also actually produced telemetry
    store = obs.get_timeseries()
    assert [s.day for s in store.samples("all")] == [0, 1]
    assert all(s.faults_displaced == 0 for s in store.samples())


def test_chaos_digests_hold_with_observability_on():
    result = CloudFogSystem(CHAOS_SCENARIOS["chaos_advanced"]).run(days=2)
    assert run_result_digest(result) == GOLDEN["chaos_advanced"]
    assert fault_summary_digest(result.faults) \
        == GOLDEN["chaos_advanced_faults"]
    # telemetry saw the injected chaos: events and per-day fault deltas
    events = obs.get_events()
    injected = held_events(events, "fault_injected")
    assert len(injected) == 5
    displaced_days = [s.day for s in obs.get_timeseries().samples("all")
                      if s.faults_displaced > 0]
    assert displaced_days, "chaos run must show displacement telemetry"


def test_chaos_domains_digests_hold_with_observability_on():
    result = CloudFogSystem(CHAOS_SCENARIOS["chaos_domains"]).run(days=2)
    assert run_result_digest(result) == GOLDEN["chaos_domains"]
    assert fault_summary_digest(result.faults) \
        == GOLDEN["chaos_domains_faults"]
    # Every branch the golden exists for was reached.
    events = obs.get_events()
    counts = {kind: len(held_events(events, kind))
              for kind in ("cloud_rerouted", "session_queued",
                           "session_shed", "join_shed", "capacity_healed")}
    assert counts == {"cloud_rerouted": 1, "session_queued": 6,
                      "session_shed": 1, "join_shed": 82,
                      "capacity_healed": 2}
    drained = [e for e in held_events(events, "cloud_fallback")
               if e.attrs["from_supernode"] is None]
    assert len(drained) == 5
    assert [e.attrs["graceful"]
            for e in held_events(events, "domain_outage")] \
        == [True, False]
