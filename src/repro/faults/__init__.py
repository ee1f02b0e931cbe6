"""``repro.faults`` — fault schedules and resilience machinery.

Three pieces, mirroring the repo's null-object/toggle convention:

* :mod:`repro.faults.plan` — deterministic, seedable
  :class:`FaultPlan` schedules (crashes, flaky supernodes, link
  degradation, update-message loss, and the correlated failure
  domains: datacenter outage, regional outage, mass preemption,
  fog↔cloud partition) pinned to (day, subcycle) instants, plus the
  :class:`AdmissionPolicy` / :class:`HealingPolicy` knobs.
* :mod:`repro.faults.detection` — the heartbeat timeout model behind
  the paper's ~0.5 s failure-detection share of migration latency.
* :mod:`repro.faults.injector` — the runtime a
  :class:`~repro.core.system.CloudFogSystem` holds: schedule lookup,
  continuity-penalty ledger, and :class:`FaultSummary` accounting whose
  conservation invariant (displaced = recovered + degraded + dropped)
  the chaos tests assert.

With no plan configured the system holds :data:`NULL_INJECTOR` and
produces bit-identical results to the pre-faults code — pinned by
``tests/faults/test_equivalence.py``.
"""

from .detection import FailureDetector
from .injector import (
    FAULT_COUNTS,
    NULL_INJECTOR,
    FaultInjector,
    FaultSummary,
    NullFaultInjector,
    build_injector,
)
from .plan import (
    FAULT_KINDS,
    AdmissionPolicy,
    FaultEvent,
    FaultPlan,
    HealingPolicy,
    load_fault_plan,
)

__all__ = [
    "FAULT_KINDS",
    "AdmissionPolicy",
    "FaultEvent",
    "FaultPlan",
    "HealingPolicy",
    "load_fault_plan",
    "FailureDetector",
    "FaultSummary",
    "FAULT_COUNTS",
    "FaultInjector",
    "NullFaultInjector",
    "NULL_INJECTOR",
    "build_injector",
]
