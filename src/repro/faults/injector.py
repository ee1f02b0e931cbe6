"""Fault injection runtime: plan lookup, penalties and accounting.

The :class:`FaultInjector` is what a :class:`~repro.core.system.
CloudFogSystem` holds when a :class:`~repro.faults.plan.FaultPlan` is
configured; the :data:`NULL_INJECTOR` is what it holds otherwise.  The
null object carries only ``active = False``, no plan and an empty
penalty view: every caller checks ``.active`` before it reads the
schedule, the resilience parameters or the penalty ledger, so no RNG
stream is ever created and
no state accumulates, and a system without a plan is bit-identical to
one built before this subsystem existed (pinned by
``tests/faults/test_equivalence.py``).

The injector itself owns only *cross-cutting* fault state:

* the schedule lookup (``events_at``);
* the per-day continuity penalty ledger that windowed faults
  (``lose_updates``, interruption gaps) feed and session scoring
  consumes;
* the resilience accounting (:class:`FaultSummary`) whose conservation
  invariant — every displaced session is recovered, degraded or
  dropped — the chaos tests assert.

Load/connection surgery stays in the system, next to the sweep's load
matrices it has to reconcile.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .plan import FaultEvent, FaultPlan

__all__ = ["FaultSummary", "FAULT_COUNTS", "FaultInjector",
           "NullFaultInjector", "NULL_INJECTOR", "build_injector"]


@dataclass
class FaultSummary:
    """Resilience accounting over one run.

    Counts are per *displacement*: a session displaced twice by
    cascading crashes contributes two displacements, and each of them
    resolves to exactly one of recovered / degraded / dropped — that is
    the conservation invariant :meth:`conserved` checks.
    """

    events_applied: int = 0
    displaced: int = 0
    recovered: int = 0
    degraded: int = 0
    dropped: int = 0
    retries: int = 0
    #: Displaced sessions shed because the fog↔cloud partition outlived
    #: them — the fourth resolution of a displacement.
    shed: int = 0
    #: Of the displaced, how many drained gracefully inside a preempt
    #: warning window (informational overlap, not a separate bucket).
    drained: int = 0
    #: *New* joins refused by admission control — never sessions, so
    #: outside the displacement ledger entirely.
    joins_shed: int = 0
    time_to_recover_ms: list[float] = field(default_factory=list)

    def conserved(self) -> bool:
        """Every displaced session is accounted for."""
        return self.displaced == (self.recovered + self.degraded
                                  + self.dropped + self.shed)

    def unaccounted(self) -> int:
        return self.displaced - (self.recovered + self.degraded
                                 + self.dropped + self.shed)

    def merge(self, other: "FaultSummary") -> None:
        for name in FAULT_COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.time_to_recover_ms.extend(other.time_to_recover_ms)


#: The ledger's counters: every :class:`FaultSummary` field but the
#: recovery-time samples, in field order.
FAULT_COUNTS = tuple(f.name for f in fields(FaultSummary)
                     if f.name != "time_to_recover_ms")


class NullFaultInjector:
    """The disabled path: shared and stateless; callers check ``active``."""

    active = False
    plan: FaultPlan | None = None
    #: Always-empty read-only view; never mutated.
    penalties: dict[int, float] = {}


#: Module-wide shared disabled injector.
NULL_INJECTOR = NullFaultInjector()


class FaultInjector:
    """Live fault state for one system run."""

    active = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.detector = plan.detector
        #: Per-player continuity penalty fractions for the current day,
        #: cleared at day start and applied after session scoring.
        self.penalties: dict[int, float] = {}
        #: Active fog↔cloud partition window (first, last subcycle) for
        #: the current day, or None.  Day-scoped: windows never span a
        #: day boundary, so nothing here needs checkpointing.
        self.partition_window: tuple[int, int] | None = None
        #: Sessions displaced during a partition that could not re-home
        #: and could not degrade to cloud:
        #: (player, rate_mbps, end_subcycle, queued_at_subcycle).
        self.queued: list[tuple[int, float, int, int]] = []
        #: Self-healing work due later today: (due_subcycle, count).
        self.pending_heals: list[tuple[int, int]] = []
        #: Supernodes that failed today; healing never resurrects them.
        self.failed_ids: set[int] = set()

    def events_at(self, day: int, subcycle: int) -> tuple[FaultEvent, ...]:
        return self.plan.events_at(day, subcycle)

    def has_events_on(self, day: int) -> bool:
        return self.plan.has_events_on(day)

    def start_day(self, day: int) -> None:
        self.penalties.clear()
        self.partition_window = None
        self.queued.clear()
        self.pending_heals.clear()
        self.failed_ids.clear()

    def partition_active(self, subcycle: int) -> bool:
        """Is the fog↔cloud link severed at this subcycle?"""
        return (self.partition_window is not None
                and self.partition_window[0] <= subcycle
                <= self.partition_window[1])

    def add_penalty(self, player: int, fraction: float) -> None:
        """Accumulate a continuity penalty fraction for one session.

        Fractions compose multiplicatively (two independent 10 % hits
        leave 81 % of continuity), and the stored value is the combined
        fraction *lost*, clipped to [0, 1].
        """
        if fraction <= 0:
            return
        kept = (1.0 - self.penalties.get(player, 0.0)) \
            * (1.0 - min(1.0, fraction))
        self.penalties[player] = 1.0 - kept


def build_injector(plan: FaultPlan | None
                   ) -> FaultInjector | NullFaultInjector:
    """The live injector for a plan, or the shared null object."""
    return NULL_INJECTOR if plan is None else FaultInjector(plan)
