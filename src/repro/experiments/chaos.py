"""Chaos experiments: QoE and recovery under in-run supernode churn.

The paper's robustness story (§3.2.2) is qualitative: failure detection
dominates the ~0.8 s migration latency and players fall back to the
cloud when no supernode qualifies.  These experiments quantify it by
sweeping a seeded Poisson crash schedule through the subcycle sweep and
reporting the resilience ledger next to the QoE aggregates:

* :func:`chaos_failure_sweep` — crash rate (events/day) vs displaced /
  recovered / degraded counts, median and p95 time-to-recover, and the
  day-level QoE the survivors delivered.
* :func:`chaos_scenario` — one scenario (built-in baseline or a
  ``--faults scenario.json`` file) run end to end, summarised as a
  metric/value table.  The chaos-smoke CI job asserts on this output.

Both keep the conservation invariant visible: a run whose displaced
sessions are not all accounted for (``FaultSummary.conserved``) would
mean the system lost sessions.
"""

from __future__ import annotations

import numpy as np

from ..core.config import cloudfog_advanced
from ..core.accounting import RunResult
from ..core.system import CloudFogSystem
from ..faults.plan import FaultPlan, load_fault_plan
from ..metrics.tables import ResultTable

__all__ = ["BASELINE_FAILURE_RATES", "baseline_chaos_plan", "run_chaos",
           "chaos_failure_sweep", "chaos_scenario"]

#: Crash rates (events/day) the sweep walks; 1.0 is the baseline rate
#: the sub-second-median claim is checked at.
BASELINE_FAILURE_RATES = (0.0, 0.5, 1.0, 2.0, 4.0)

#: Handshake-timeout probability used by the built-in schedules, so
#: some migrations' selection rounds time out and degrade to the cloud.
DEFAULT_TRANSIENT_REFUSAL = 0.15


def baseline_chaos_plan(rate_per_day: float, days: int,
                        seed: int = 0) -> FaultPlan:
    """The sweep's schedule: Poisson crashes plus churn turbulence."""
    return FaultPlan.poisson(rate_per_day, days, seed=seed).with_(
        transient_refusal_prob=DEFAULT_TRANSIENT_REFUSAL)


def run_chaos(plan: FaultPlan, days: int = 4, seed: int = 0,
              num_players: int = 250, num_supernodes: int = 16,
              ) -> RunResult:
    """Run CloudFog/A with a fault plan at the reduced chaos scale."""
    config = cloudfog_advanced(num_players=num_players,
                               num_supernodes=num_supernodes,
                               seed=seed, fault_plan=plan)
    return CloudFogSystem(config).run(days=days)


def _resilience_columns(result: RunResult) -> tuple:
    """The ledger columns; time-to-recover is NaN when nothing recovered
    (no data is not 0 ms)."""
    s = result.faults
    ttr = s.time_to_recover_ms
    median = float(np.median(ttr)) if ttr else float("nan")
    p95 = float(np.percentile(ttr, 95)) if ttr else float("nan")
    return s.displaced, s.recovered, s.degraded, median, p95


def chaos_failure_sweep(seed: int = 0,
                        rates: tuple = BASELINE_FAILURE_RATES,
                        days: int = 4,
                        num_players: int = 250,
                        num_supernodes: int = 16) -> ResultTable:
    """QoE and recovery vs supernode crash rate (chaos experiment).

    Every rate runs the same seeded population; only the ``faults-*``
    RNG streams differ, so the QoE deltas across rows are the faults'
    doing, not workload noise.  Raises if any run loses a session
    (conservation violation) — a chaos sweep that mislays sessions must
    never render as a results table.
    """
    table = ResultTable(
        title=f"QoE under supernode churn ({num_players} players, "
              f"{num_supernodes} supernodes, {days} days)",
        columns=["crashes/day", "displaced", "recovered", "degraded",
                 "median ttr (ms)", "p95 ttr (ms)", "satisfied",
                 "continuity"])
    for rate in rates:
        plan = baseline_chaos_plan(rate, days, seed=seed)
        result = run_chaos(plan, days=days, seed=seed,
                           num_players=num_players,
                           num_supernodes=num_supernodes)
        if not result.faults.conserved():
            raise AssertionError(
                f"conservation violated at rate {rate}: "
                f"{result.faults.unaccounted()} sessions unaccounted")
        table.add_row(rate, *_resilience_columns(result),
                      result.mean_satisfied_ratio, result.mean_continuity)
    return table


def chaos_scenario(faults: str | FaultPlan | None = None, seed: int = 0,
                   days: int = 4, num_players: int = 250,
                   num_supernodes: int = 16) -> ResultTable:
    """Run one fault scenario end to end and summarise the outcome.

    ``faults`` may be a path to a ``--faults`` JSON file, an in-memory
    :class:`FaultPlan`, or None for the built-in baseline (one crash
    per day at the chaos sweep's turbulence settings).
    """
    if faults is None:
        plan = baseline_chaos_plan(1.0, days, seed=seed)
    elif isinstance(faults, FaultPlan):
        plan = faults
    else:
        plan = load_fault_plan(faults)
    result = run_chaos(plan, days=days, seed=seed,
                       num_players=num_players,
                       num_supernodes=num_supernodes)
    summary = result.faults
    ttr = summary.time_to_recover_ms
    table = ResultTable(title="Chaos scenario summary",
                        columns=["metric", "value"])
    table.add_row("scheduled events", len(plan))
    table.add_row("events applied", summary.events_applied)
    table.add_row("sessions displaced", summary.displaced)
    table.add_row("recovered (supernode)", summary.recovered)
    table.add_row("degraded (cloud)", summary.degraded)
    table.add_row("unaccounted", summary.unaccounted())
    table.add_row("median time-to-recover (ms)",
                  float(np.median(ttr)) if ttr else float("nan"))
    table.add_row("mean continuity", result.mean_continuity)
    table.add_row("satisfied ratio", result.mean_satisfied_ratio)
    return table
