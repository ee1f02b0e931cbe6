"""Regenerate the pinned golden digests (no-faults and chaos pins).

Run from the repo root::

    PYTHONPATH=src python -m tests.faults.regen_golden

and paste the printed values into ``tests/faults/test_equivalence.py``.
"""

from __future__ import annotations

from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced, cloudfog_basic
from repro.faults.plan import FaultEvent, FaultPlan

from ..helpers.golden import fault_summary_digest, run_result_digest

SCENARIOS = {
    "cloudfog_basic": cloudfog_basic(
        num_players=250, num_supernodes=12, seed=7),
    "cloudfog_advanced": cloudfog_advanced(
        num_players=250, num_supernodes=12, seed=7),
}

#: A busy, deterministic schedule exercising every fault kind plus the
#: retry/backoff machinery — the refactor-guard chaos pin runs this on
#: top of the ``cloudfog_advanced`` baseline scenario.
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

CHAOS_SCENARIOS = {
    "chaos_advanced": SCENARIOS["cloudfog_advanced"].with_(
        fault_plan=CHAOS_PLAN),
}


def compute() -> dict[str, str]:
    def _run(config):
        return CloudFogSystem(config).run(days=2)

    digests = {name: run_result_digest(_run(config))
               for name, config in SCENARIOS.items()}
    for name, config in CHAOS_SCENARIOS.items():
        result = _run(config)
        digests[name] = run_result_digest(result)
        digests[name + "_faults"] = fault_summary_digest(result.faults)
    return digests


if __name__ == "__main__":
    print("# replay-exact (tests/faults/test_equivalence.py)")
    for name, digest in compute().items():
        print(f'    "{name}": "{digest}",')
