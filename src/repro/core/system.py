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

import numpy as np

from ..workload.population import Population
from . import accounting, lifecycle, sweep
from . import state as simstate
from .config import SystemConfig
from .state import SimState

__all__ = ["FAILURE_DETECTION_MS", "CloudFogSystem"]

#: Legacy fixed failure-detection timeout (§3.2.2); dominates the
#: ~0.8 s migration latency.  Kept as the documented expectation of the
#: default heartbeat model: :class:`repro.faults.FailureDetector`'s
#: ``expected_detection_ms`` equals this value, and
#: ``detection_latency_ms`` draws the actual phase-dependent latency.
FAILURE_DETECTION_MS = 500.0

#: SimState attributes mirrored 1:1 on the façade (read and write).
_STATE_ATTRS = (
    "config", "rng_factory", "supernode_join_latencies_ms", "population",
    "topology", "transport", "faults",
    "failure_detector", "retry_policy", "fault_outcomes", "compression",
    "credits", "ledger", "reputation", "datacenters", "supernode_pool",
    "live_supernodes", "directory", "cdn_coords", "cdn_access",
    "provisioner", "candidates", "daily_participants",
)


def _state_property(attr: str) -> property:
    def fget(self):
        return getattr(self._state, attr)

    def fset(self, value):
        setattr(self._state, attr, value)

    return property(fget, fset, doc=f"Delegates to ``SimState.{attr}``.")


class CloudFogSystem:
    """One deployed gaming system (CloudFog, Cloud or CDN).

    A façade: construction builds a :class:`SimState`, every method
    delegates to the stage modules.  No stage logic lives here.
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

    def set_arrival_rates(self, offpeak_per_min: float,
                          peak_per_min: float) -> None:
        """Drive daily participation from arrival rates (Figs. 13-15)."""
        simstate.set_arrival_rates(self._state, offpeak_per_min,
                                   peak_per_min)

    def fail_supernodes(self, count: int, rng: np.random.Generator,
                        day: int | None = None) -> list[float]:
        """Fail ``count`` random live supernodes; reconnect their players."""
        return lifecycle.fail_supernodes(self._state, count, rng, day)


for _attr in _STATE_ATTRS:
    setattr(CloudFogSystem, _attr, _state_property(_attr))
del _attr
