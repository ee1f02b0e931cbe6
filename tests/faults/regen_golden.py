"""Regenerate the pinned golden digests (no-faults, chaos, scenario and
checkpoint state-payload pins).

Run from the repo root::

    PYTHONPATH=src python -m tests.faults.regen_golden

and paste the printed values into ``tests/faults/test_equivalence.py``.
"""

from __future__ import annotations

import hashlib

from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced, cloudfog_basic
from repro.faults.plan import (AdmissionPolicy, FaultEvent, FaultPlan,
                               HealingPolicy)
from repro.persist import SnapshotEncoder
from repro.sim.cycles import Schedule
from repro.workload.overrides import FlashCrowdStage, WorkloadOverrides

from ..helpers.golden import fault_summary_digest, run_result_digest

SCENARIOS = {
    "cloudfog_basic": cloudfog_basic(
        num_players=250, num_supernodes=12, seed=7),
    "cloudfog_advanced": cloudfog_advanced(
        num_players=250, num_supernodes=12, seed=7),
}

#: A busy, deterministic schedule exercising every fault kind plus
#: transient handshake refusals — the refactor-guard chaos pin runs
#: this on top of the ``cloudfog_advanced`` baseline scenario.
CHAOS_PLAN = FaultPlan(
    events=(
        FaultEvent(day=1, subcycle=8, kind="crash", count=2),
        FaultEvent(day=1, subcycle=10, kind="flaky", severity=0.3),
        FaultEvent(day=1, subcycle=12, kind="degrade_link", extra_ms=15.0),
        FaultEvent(day=1, subcycle=14, kind="lose_updates", severity=0.4,
                   duration_subcycles=3),
        FaultEvent(day=1, subcycle=21, kind="crash", count=1),
    ),
    transient_refusal_prob=0.2,
)

#: The correlated-domain branches no other pin reaches: an announced
#: preemption drains gracefully, a datacenter outage re-routes cloud
#: sessions and heals, a partition queues crash orphans and then drains
#: them to the cloud (or sheds the one its window outlived), and the
#: admission cap sheds cloud joins.
DOMAINS_PLAN = FaultPlan(
    events=(
        FaultEvent(day=1, subcycle=8, kind="preempt", count=2,
                   warning_subcycles=2),
        FaultEvent(day=1, subcycle=11, kind="dc_outage", datacenter=0),
        FaultEvent(day=1, subcycle=17, kind="partition",
                   duration_subcycles=2),
        FaultEvent(day=1, subcycle=18, kind="crash", count=12),
    ),
    transient_refusal_prob=0.2,
    admission=AdmissionPolicy(max_cloud_sessions=60),
    healing=HealingPolicy(delay_subcycles=2),
)

CHAOS_SCENARIOS = {
    "chaos_advanced": SCENARIOS["cloudfog_advanced"].with_(
        fault_plan=CHAOS_PLAN),
    "chaos_domains": SCENARIOS["cloudfog_advanced"].with_(
        fault_plan=DOMAINS_PLAN),
}


#: The scenario workload seams no other pin reaches: a participant
#: subset, per-region timezone offsets shifting the start subcycles, a
#: weighted game mix under a quality ceiling, a flash crowd queued onto
#: a peak subcycle that already holds organic starts, and an admission
#: cap, so arrivals commit join by join and shed cloud joins.
SCENARIO_WORKLOAD = WorkloadOverrides(
    daily_participants=170,
    game_weights=(("ArenaStrike", 3.0), ("WarBanner", 1.0),
                  ("EmpireForge", 1.0), ("KingdomSaga", 2.0)),
    start_offsets=(0, 3, 21, 0, 7),
    quality_ceiling=4,
    flash_crowds=(FlashCrowdStage(day=2, subcycle=21, players=50),
                  FlashCrowdStage(day=1, subcycle=22, players=20,
                                  duration_hours=0.5, game="BladeDuel")))

#: Three days, the last two measured, so both crowds land in the digest.
SCENARIO_WORKLOAD_CONFIG = SCENARIOS["cloudfog_advanced"].with_(
    schedule=Schedule(days=3, warmup_days=1),
    fault_plan=FaultPlan(admission=AdmissionPolicy(max_cloud_sessions=25)),
    workload=SCENARIO_WORKLOAD)


def run_scenario_workload():
    """The ``scenario_workload`` run: its config, workload included."""
    return CloudFogSystem(SCENARIO_WORKLOAD_CONFIG).run()


#: Checkpoint state payloads pinned at the day-1 boundary: a plain
#: CloudFog/A run (throttle classes, supported totals), the chaos run
#: (a partial live set, a flaky throttle of 0.3 not yet re-rolled) and
#: the domain-chaos run, whose final crash leaves no node online.
STATE_SCENARIOS = {
    "state_cloudfog_advanced": SCENARIOS["cloudfog_advanced"],
    "state_chaos_advanced": CHAOS_SCENARIOS["chaos_advanced"],
    "state_chaos_domains": CHAOS_SCENARIOS["chaos_domains"],
}


def state_payload_digest(config) -> str:
    """SHA-256 of ``SnapshotEncoder().encode_state`` after day 1."""
    encoded: list[str] = []

    def capture(state, day, _result, _total_days):
        if day == 1:
            encoded.append(SnapshotEncoder().encode_state(state))

    CloudFogSystem(config).run(days=2, on_day_end=capture)
    return hashlib.sha256(encoded[0].encode()).hexdigest()


def compute() -> dict[str, str]:
    def _run(config):
        return CloudFogSystem(config).run(days=2)

    digests = {name: run_result_digest(_run(config))
               for name, config in SCENARIOS.items()}
    for name, config in CHAOS_SCENARIOS.items():
        result = _run(config)
        digests[name] = run_result_digest(result)
        digests[name + "_faults"] = fault_summary_digest(result.faults)
    result = run_scenario_workload()
    digests["scenario_workload"] = run_result_digest(result)
    digests["scenario_workload_faults"] = fault_summary_digest(result.faults)
    for name, config in STATE_SCENARIOS.items():
        digests[name] = state_payload_digest(config)
    return digests


if __name__ == "__main__":
    print("# replay-exact (tests/faults/test_equivalence.py)")
    for name, digest in compute().items():
        print(f'    "{name}": "{digest}",')
