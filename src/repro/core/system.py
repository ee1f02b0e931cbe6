"""The CloudFog system façade: config → state → staged sweep pipeline.

This module used to be the paper's entire evaluation engine in one
1,500-line class.  The engine now lives in a layered pipeline — shared
mutable :class:`~repro.core.state.SimState` at the bottom, stage
modules above it, one orchestrator on top:

* :mod:`repro.core.state` — the deployed system itself (population,
  infrastructure, sticky/reputation/caches) plus construction;
* :mod:`repro.core.lifecycle` — joins, sticky reuse, the §3.2.2
  migration ladder, supernode removal;
* :mod:`repro.core.scoring` — per-session QoS (batch + scalar
  reference paths, pinned bit-identical);
* :mod:`repro.core.accounting` — result containers, load timelines,
  Eq.-2 bandwidth / egress budgets, day summaries, credits;
* :mod:`repro.faults.handlers` — what each scheduled fault does to a
  live sweep;
* :mod:`repro.core.sweep` — the day/subcycle orchestrator running the
  explicit stage tuple (departures → faults → arrivals) per subcycle.

:class:`CloudFogSystem` survives as a thin façade over that pipeline:
it owns one ``SimState`` and delegates every call, keeping the public
construction-and-run API stable.  Code that needs a single stage calls
the stage function on :attr:`CloudFogSystem.state` directly.  The
deprecation shim that used to re-export every moved name from here is
gone — import result containers from :mod:`repro.core.accounting` and
the rest from the stage modules listed above.

Latency/randomness semantics are unchanged and documented in
DESIGN.md §10 and the stage modules' docstrings; outputs are pinned
bit-identical to the pre-split engine by the golden digests in
``tests/faults``.
"""

from __future__ import annotations

from ..workload.population import Population
from . import accounting, sweep
from .config import SystemConfig
from .state import SimState

__all__ = ["CloudFogSystem"]


class CloudFogSystem:
    """One deployed gaming system (CloudFog, Cloud or CDN).

    A façade: construction builds a :class:`SimState`, :meth:`run`
    delegates to the sweep; read the deployed system through
    :attr:`state`.  No stage logic lives here.
    """

    def __init__(self, config: SystemConfig,
                 population: Population | None = None) -> None:
        self._state = SimState(config, population)

    @property
    def state(self) -> SimState:
        """The underlying shared simulation state."""
        return self._state

    # -- public API ----------------------------------------------------
    def run(self, days: int | None = None, *,
            result: accounting.RunResult | None = None,
            start_day: int = 0, on_day_end=None) -> accounting.RunResult:
        """Run the configured schedule and return measured-day results.

        The keyword-only parameters are the checkpoint/resume seam —
        see :func:`repro.core.sweep.run_schedule`.
        """
        return sweep.run_schedule(self._state, days, result=result,
                                  start_day=start_day,
                                  on_day_end=on_day_end)

