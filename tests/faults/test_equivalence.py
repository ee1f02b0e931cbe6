"""Bit-identity pins: golden digests of baseline and chaos runs.

Two families of pins live here:

* **No-faults pins** — a system configured without a fault plan (the
  default) takes the shared :data:`~repro.faults.injector.NULL_INJECTOR`
  path, creates no fault RNG streams and must reproduce every numeric
  output bit for bit against the pre-faults code.
* **Chaos pins** — a run with a busy :class:`~repro.faults.plan.
  FaultPlan` (every event kind + transient refusals) must also be bit
  stable.  Together with the baseline pins this guards refactors of the
  core pipeline: code motion must not change a single ULP anywhere.

Regenerate (only when an *intentional* simulation change lands) with::

    PYTHONPATH=src python -m tests.faults.regen_golden
"""

import pytest

from repro.core import CloudFogSystem
from repro.faults.plan import FaultPlan

from ..helpers.golden import fault_summary_digest, run_result_digest
from .regen_golden import CHAOS_SCENARIOS, SCENARIOS

GOLDEN = {
    "cloudfog_basic":
        "a9f26aeafa28200abf986015c91d2d05ddf0efff4f338e896107ecd4ccefc741",
    "cloudfog_advanced":
        "11abc00b38ecb1f5d29278c52db31bd2d8f66ebc71cebbef2f56684111d8a586",
    "chaos_advanced":
        "c840ba01b83eda1249c9e26e81bda3e1e7c07757943a2d798e896f452e6df540",
    "chaos_advanced_faults":
        "8f68ec3b5f6a32f54844857ca5d7c4a9c8e52017381b5a89d77d2b44f003cbf2",
    "chaos_domains":
        "edb484c740d186ca265ac6931ae3bc7ade8f8a29e9bc5c27ddbb703da914e4c2",
    "chaos_domains_faults":
        "8eafd182a1fe798b123adcad7908145bbdfbe761f257c3679420c4e36713f5e3",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_no_fault_plan_is_bit_identical(name):
    result = CloudFogSystem(SCENARIOS[name]).run(days=2)
    assert run_result_digest(result) == GOLDEN[name]
    assert result.faults.displaced == 0
    assert result.faults.events_applied == 0


def test_empty_fault_plan_is_also_bit_identical():
    """An *active* injector with no events must not perturb outputs:
    no fault RNG stream is created for event-free days and the penalty
    ledger stays empty, so the digest still matches the golden."""
    from dataclasses import replace

    config = replace(SCENARIOS["cloudfog_advanced"], fault_plan=FaultPlan())
    result = CloudFogSystem(config).run(days=2)
    assert run_result_digest(result) == GOLDEN["cloudfog_advanced"]


def test_chaos_run_is_bit_identical():
    """The refactor guard: a faulted run — crashes, flaky throttling,
    link degradation, update loss, transient refusals — produces the
    exact outputs (and fault accounting) pinned before the staged-sweep
    refactor of ``repro.core``."""
    result = CloudFogSystem(CHAOS_SCENARIOS["chaos_advanced"]).run(days=2)
    assert run_result_digest(result) == GOLDEN["chaos_advanced"]
    assert fault_summary_digest(result.faults) \
        == GOLDEN["chaos_advanced_faults"]
    assert result.faults.events_applied == 5
    assert result.faults.conserved()


def test_chaos_domains_run_is_bit_identical():
    """The correlated-domain branches pinned: a graceful preemption
    drain, a datacenter outage's cloud re-route and heal, the
    partition queue drained to the cloud or shed, and admission
    shedding.  The summary digest omits the shed/drained counters, so
    they are asserted directly."""
    result = CloudFogSystem(CHAOS_SCENARIOS["chaos_domains"]).run(days=2)
    assert run_result_digest(result) == GOLDEN["chaos_domains"]
    assert fault_summary_digest(result.faults) \
        == GOLDEN["chaos_domains_faults"]
    summary = result.faults
    assert summary.events_applied == 4
    assert (summary.displaced, summary.recovered, summary.degraded,
            summary.shed, summary.drained, summary.joins_shed) \
        == (9, 2, 6, 1, 1, 82)
    assert summary.conserved()
