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
construction-and-run API (and the private attribute names experiment
and test code grew around) stable.  The deprecation shim that used to
re-export every moved name from here is gone — import result
containers from :mod:`repro.core.accounting` and the rest from the
stage modules listed above.

Latency/randomness semantics are unchanged and documented in
DESIGN.md §10 and the stage modules' docstrings; outputs are pinned
bit-identical to the pre-split engine by the golden digests in
``tests/faults``.
"""

from __future__ import annotations

import numpy as np

from ..faults import handlers
from ..workload.population import Population
from . import accounting, lifecycle, scoring, sweep
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

#: Historical private façade names → their public SimState attribute.
#: Tests and experiment helpers reach into these, so they stay live.
_STATE_ALIASES = {
    "_sticky": "sticky",
    "_games": "games",
    "_live_ids": "live_ids",
    "_nearest_dc": "nearest_dc",
    "_server_latency_cache": "server_latency_cache",
    "_current_day": "current_day",
    "_deployed_count": "deployed_count",
    "_weekly_weights": "weekly_weights",
    "_duration_mixture": "duration_mixture",
    "_start_times": "start_times",
}


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

    #: Per-packet sample count / modelled session length of the fast
    #: session estimate (legacy aliases of the ``core.scoring`` knobs).
    _QOS_SAMPLES = scoring.QOS_SAMPLES
    _QOS_DURATION_S = scoring.QOS_DURATION_S

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

    def run_day(self, day: int, result: accounting.RunResult,
                measuring: bool) -> None:
        sweep.run_day(self._state, day, result, measuring)

    def set_arrival_rates(self, offpeak_per_min: float,
                          peak_per_min: float) -> None:
        """Drive daily participation from arrival rates (Figs. 13-15)."""
        simstate.set_arrival_rates(self._state, offpeak_per_min,
                                   peak_per_min)

    def fail_supernodes(self, count: int, rng: np.random.Generator,
                        day: int | None = None) -> list[float]:
        """Fail ``count`` random live supernodes; reconnect their players."""
        return lifecycle.fail_supernodes(self._state, count, rng, day)

    # -- infrastructure construction ------------------------------------
    def _build_supernode_pool(self) -> None:
        simstate.build_supernode_pool(self._state)

    def _build_cdn_sites(self) -> None:
        simstate.build_cdn_sites(self._state)

    def _deploy(self, supernodes) -> None:
        simstate.deploy(self._state, supernodes)

    # -- plans / games ---------------------------------------------------
    def _sample_plans(self, rng: np.random.Generator, day: int = 0):
        return sweep.sample_plans(self._state, rng, day)

    def _choose_games(self, plans, rng: np.random.Generator) -> None:
        sweep.choose_games(self._state, plans, rng)

    # -- sweep / assignment / provisioning -------------------------------
    def _sweep_day(self, plans, rng, result, measuring, day=0):
        return sweep.sweep_day(self._state, plans, rng, result, measuring,
                               day)

    def _run_server_assignment(self, rng, result) -> None:
        sweep.run_server_assignment(self._state, rng, result)

    def _run_provisioning(self, plans, rng) -> None:
        sweep.run_provisioning(self._state, plans, rng)

    # -- session lifecycle ----------------------------------------------
    def _join(self, plan, rng):
        return lifecycle.join(self._state, plan, rng)

    def _join_cdn(self, plan, game):
        return lifecycle.join_cdn(self._state, plan, game)

    def _migrate(self, player, l_max, rng, transient_refusal=0.0):
        return lifecycle.migrate(self._state, player, l_max, rng,
                                 transient_refusal)

    def _session_window(self, session, hours):
        return lifecycle.session_window(session, hours)

    def _take_offline(self, failed):
        return lifecycle.take_offline(self._state, failed)

    def _fog_availability(self) -> float:
        return lifecycle.fog_availability(self._state)

    # -- latency helpers -------------------------------------------------
    def _cloud_one_way_ms(self, player: int) -> float:
        return simstate.cloud_one_way_ms(self._state, player)

    def _player_supernode_ms(self, player, sn) -> float:
        return simstate.player_supernode_ms(self._state, player, sn)

    def _server_latency_ms(self, player, kind) -> float:
        return scoring.server_latency_ms(self._state, player, kind)

    # -- session scoring -------------------------------------------------
    def _score_sessions(self, day, sessions, loads, cloud_rate, rng):
        return scoring.score_sessions(self._state, day, sessions, loads,
                                      cloud_rate, rng)

    def _score_sessions_inner(self, day, sessions, loads, cloud_rate, rng):
        return scoring.score_sessions_batch(self._state, day, sessions,
                                            loads, cloud_rate, rng)

    def _apply_fault_penalties(self, records):
        return scoring.apply_fault_penalties(self._state, records)

    # -- bandwidth accounting ---------------------------------------------
    def _cloud_egress_budget(self) -> float:
        return accounting.cloud_egress_budget(self._state)

    def _cloud_bandwidth(self, cloud_rate, loads) -> float:
        return accounting.cloud_bandwidth(self._state, cloud_rate, loads)

    # -- in-run fault injection ------------------------------------------
    def _apply_faults(self, day, subcycle, sessions, loads, cloud_rate,
                      frng, result, measuring, hours) -> None:
        handlers.apply_faults(self._state, day, subcycle, sessions, loads,
                              cloud_rate, frng, result, measuring, hours)

    def _fault_targets(self, event, frng):
        return handlers.fault_targets(self._state, event, frng)

    def _inject_crash(self, event, day, subcycle, sessions, loads,
                      cloud_rate, frng, result, measuring, hours) -> None:
        handlers.inject_crash(self._state, event, day, subcycle, sessions,
                              loads, cloud_rate, frng, result, measuring,
                              hours)

    def _inject_flaky(self, event, frng) -> None:
        handlers.inject_flaky(self._state, event, frng)

    def _inject_link_degradation(self, event, subcycle, sessions,
                                 hours) -> None:
        handlers.inject_link_degradation(self._state, event, subcycle,
                                         sessions, hours)

    def _inject_update_loss(self, event, subcycle, sessions, hours,
                            registry) -> None:
        handlers.inject_update_loss(self._state, event, subcycle, sessions,
                                    hours, registry)


for _attr in _STATE_ATTRS:
    setattr(CloudFogSystem, _attr, _state_property(_attr))
for _alias, _attr in _STATE_ALIASES.items():
    setattr(CloudFogSystem, _alias, _state_property(_attr))
del _attr, _alias
