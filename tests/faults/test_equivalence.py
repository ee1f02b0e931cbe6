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
from repro.workload.games import GAME_CATALOGUE

from ..helpers.golden import fault_summary_digest, run_result_digest
from .regen_golden import (CHAOS_SCENARIOS, SCENARIOS, STATE_SCENARIOS,
                           run_scenario_workload, state_payload_digest)

GOLDEN = {
    "cloudfog_basic":
        "a9f26aeafa28200abf986015c91d2d05ddf0efff4f338e896107ecd4ccefc741",
    "cloudfog_advanced":
        "11abc00b38ecb1f5d29278c52db31bd2d8f66ebc71cebbef2f56684111d8a586",
    "chaos_advanced":
        "c840ba01b83eda1249c9e26e81bda3e1e7c07757943a2d798e896f452e6df540",
    "chaos_advanced_faults":
        "03f8736991851727f4b4274c003fe49a7b2cd30ceb35c83c9f05027e77a59a5a",
    "chaos_domains":
        "edb484c740d186ca265ac6931ae3bc7ade8f8a29e9bc5c27ddbb703da914e4c2",
    "chaos_domains_faults":
        "5af521e238346196ffb42c35a5bc71d59dfb733ea64dd84d9b8a39601ccf28f7",
    "scenario_workload":
        "9c373db43a4533d3fec0061a970e0898c1f5ef2c348f5a7efa9c80b536e25bb1",
    "scenario_workload_faults":
        "face2738a57bc42581f97144dbcf5b3329253ddc0b1172fa656aefd5c33281b8",
    "state_cloudfog_advanced":
        "08eb3378734ed6991e96ba2f469ab36ba583c57329a09e9443da9bae1036f7bc",
    "state_chaos_advanced":
        "3520a41bf2313f2c3e0f598b554ccc4fe357e7ac4be7c3e39a53b4bdb598186a",
    "state_chaos_domains":
        "43ef84706d677d35c806b86b11a688a5826ea0b24c9ce06580f19f00b6674f4e",
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
    shedding.  The summary digest hashes the shed/drained counters
    too; the counts are also asserted directly, so a drift names the
    counter that moved."""
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


def test_scenario_workload_run_is_bit_identical():
    """The scenario workload seams pinned: a participant subset,
    timezone-shifted starts, a weighted game mix under a quality
    ceiling, flash crowds queued behind organic starts of the same
    subcycle, and join-by-join admission shedding.  Flash-crowd joiners
    follow the game mix and the ceiling too, so no session streams a
    game the mix leaves out or above the ceiling level."""
    result = run_scenario_workload()
    assert run_result_digest(result) == GOLDEN["scenario_workload"]
    assert fault_summary_digest(result.faults) \
        == GOLDEN["scenario_workload_faults"]
    assert result.faults.joins_shed == 64
    assert len(result.sessions) == 362
    levels = {game.name: game.default_level for game in GAME_CATALOGUE}
    # The mix weighs four games; KingdomSaga (level 5) streams as the
    # ceiling's level-4 game, and the crowd's BladeDuel is explicit.
    assert {r.game for r in result.sessions} <= {
        "ArenaStrike", "WarBanner", "EmpireForge", "BladeDuel"}
    assert max(levels[r.game] for r in result.sessions) <= 4


@pytest.mark.parametrize("name", sorted(STATE_SCENARIOS))
def test_state_payload_is_bit_identical(name):
    """The checkpoint's state payload at the day-1 boundary, byte for
    byte: the per-supernode records (online, throttle, supported total,
    connected), the ordered live list and every other captured field."""
    assert state_payload_digest(STATE_SCENARIOS[name]) == GOLDEN[name]
