"""State ⇄ payload conversion: the hidden-mutable-state inventory.

Bit-identical resume rests on two audited facts (DESIGN.md §11):

1. **The RNG ordering contract is day-scoped.**
   :class:`~repro.sim.rng.RngFactory` is stateless (it stores only the
   root seed); every in-run stream is derived per day
   (``plans-{day}``, ``games-{day}``, ``selection-{day}``,
   ``qos-{day}``, ``faults-{day}``, ``throttle-{day}``,
   ``assignment-{day}``, ``provision-{day}``), and the construction
   streams (``population``, ``supernodes``, ``cdn``) are consumed
   before day 0.  No live generator state ever crosses a day boundary,
   so "checkpoint the RNG" means "store the seed".

2. **Everything else that crosses a day boundary is enumerated here.**
   Captured: the supernode pool's mutable fields (throttle/online/
   supported_total/connected), the *ordered* live list (fault targeting
   indexes into it; ``SweepLoads`` rows follow its order), sticky
   assignments, per-player candidate lists, the rating ledger (its
   pair table and append-only rating log, as columns) with the
   reputation score cache as one column aligned to the pair table (it
   cannot be recomputed — scores age by refresh day; both go through
   the reputation module's ``to_columns``/``load_columns``, which
   validate on load), credit accounts, per-datacenter player→server
   maps, the server-latency cache, the provisioner's ARIMA hidden state
   (``_history``/``_residuals``/``_last_forecast`` — the last is
   non-None at day boundaries once the model is ready), fault
   penalties/accounting, the workload knobs
   (``daily_participants``/``weekly_weights``/start-time/duration
   models), and the accumulated
   :class:`~repro.core.accounting.RunResult`.

   Deliberately *not* captured, with reasons:

   * per-day session state — the :class:`~repro.core.state.
     SessionTable` and its :class:`~repro.core.columns.SessionColumns`
     rows live inside one ``sweep_day`` call and never cross a day
     boundary (§4.1: cycles do not wrap);

   * population/topology/transport/datacenter structure/CDN sites —
     rebuilt deterministically from the serialized ``SystemConfig``;
   * the supernode directory/spatial index — rebuilt from the live
     list by :func:`~repro.core.state.deploy`;
   * ``state.games`` — cleared by ``choose_games`` at each day start
     before any read;
   * supernode ``throttle`` *semantics*: captured for robustness, but
     ``roll_throttle`` re-rolls it unconditionally at day start;
   * retry/backoff state — :class:`~repro.faults.retry.RetryPolicy`
     and :class:`~repro.faults.detection.FailureDetector` are frozen;
     attempt counters live on the stack inside ``lifecycle.migrate``;
   * obs tracer/registry — telemetry, not simulation state.  The
     accumulated *telemetry series* (time-series samples + event log)
     does ride along, but at the checkpoint layer — an optional
     ``telemetry`` payload key written by
     :func:`~repro.persist.checkpoint.save_checkpoint` via
     :func:`repro.obs.capture_telemetry` — precisely so this
     simulation-state inventory stays simulation-only.

Payloads are pure JSON values.  ``json`` round-trips finite floats
exactly, and integer dict keys are stored as explicit pairs (JSON
object keys are strings) in original insertion order.
"""

from __future__ import annotations

import numpy as np

from ..core.accounting import DayMetrics, RunResult, SessionRecord
from ..core.candidates import CandidateEntry
from ..core.config import SystemConfig
from ..core.entities import ConnectionKind
from ..core.state import SimState, deploy
from ..economics.ledger import SupernodeAccount
from ..faults import FaultSummary
from ..faults.plan import FaultPlan
from ..sim.cycles import Schedule
from ..sim.rng import RngFactory
from ..workload.churn import DurationMixture, StartTimeModel
from ..workload.games import GAME_CATALOGUE
from .codec import CheckpointCorruptError, canonical_json, canonical_object

__all__ = ["config_to_dict", "config_from_dict", "capture_state",
           "restore_state", "overlay_state", "capture_result",
           "restore_result", "SnapshotEncoder"]

_GAME_BY_NAME = {game.name: game for game in GAME_CATALOGUE}

_SUMMARY_COUNTS = ("events_applied", "displaced", "recovered", "degraded",
                   "dropped", "retries", "shed", "drained", "joins_shed")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def config_to_dict(config: SystemConfig) -> dict:
    """A JSON-ready dict capturing every :class:`SystemConfig` field."""
    import dataclasses

    return dataclasses.asdict(config)


def config_from_dict(data: dict) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output."""
    from ..core.config import StrategyFlags

    data = dict(data)
    data["strategies"] = StrategyFlags(**data["strategies"])
    schedule = dict(data["schedule"])
    schedule["peak_subcycles"] = tuple(schedule["peak_subcycles"])
    data["schedule"] = Schedule(**schedule)
    plan = data.get("fault_plan")
    data["fault_plan"] = None if plan is None else FaultPlan.from_dict(plan)
    return SystemConfig(**data)


# ----------------------------------------------------------------------
# fault summaries
# ----------------------------------------------------------------------
def _summary_to_dict(summary: FaultSummary) -> dict:
    data = {name: getattr(summary, name) for name in _SUMMARY_COUNTS}
    data["time_to_recover_ms"] = list(summary.time_to_recover_ms)
    return data


def _summary_from_dict(data: dict) -> FaultSummary:
    return FaultSummary(
        **{name: data[name] for name in _SUMMARY_COUNTS},
        time_to_recover_ms=list(data["time_to_recover_ms"]))


# ----------------------------------------------------------------------
# SimState
# ----------------------------------------------------------------------
def capture_state(state: SimState) -> dict:
    """Serialize every mutable field of a :class:`SimState` at a day
    boundary (see the module docstring for the inventory)."""
    return {"config": config_to_dict(state.config), **_state_rest(state)}


def _state_rest(state: SimState) -> dict:
    """Every captured :class:`SimState` field except the config."""
    provisioner = None
    if state.provisioner is not None:
        model = state.provisioner._model
        provisioner = {
            "history": list(model._history),
            "residuals": list(model._residuals),
            "last_forecast": model._last_forecast,
        }
    return {
        "seed": state.rng_factory.seed,
        "current_day": state.current_day,
        "pool_size": len(state.supernode_pool),
        "supernodes": [
            {"id": sn.supernode_id, "online": sn.online,
             "throttle": sn.throttle,
             "supported_total": sn.supported_total,
             "connected": sorted(sn.connected)}
            for sn in state.supernode_pool],
        # Ordered: fault targeting draws indices into this list and
        # SweepLoads rows follow its order, so a set would not do.
        "live_ids": [sn.supernode_id for sn in state.live_supernodes],
        "supernode_join_latencies_ms":
            list(state.supernode_join_latencies_ms),
        "sticky": [[player, sn] for player, sn in state.sticky.items()],
        "candidates": [
            [player, [[e.supernode_id, e.delay_ms] for e in entries]]
            for player, entries in state.candidates._lists.items()],
        "ratings": {**state.ledger.to_columns(),
                    **state.reputation.to_columns()},
        "credits": [
            {"supernode_id": a.supernode_id,
             "credits_usd": a.credits_usd, "costs_usd": a.costs_usd,
             "gb_served": a.gb_served, "days_enrolled": a.days_enrolled}
            for a in state.credits.accounts.values()],
        "datacenters": [
            [[player, server] for player, server
             in dc._player_server.items()]
            for dc in state.datacenters],
        "server_latency_cache": [
            [player, ms] for player, ms
            in state.server_latency_cache.items()],
        "provisioner": provisioner,
        "fault_outcomes": _summary_to_dict(state.fault_outcomes),
        "fault_penalties": (
            [[player, fraction] for player, fraction
             in state.faults.penalties.items()]
            if state.faults.active else []),
        "workload": {
            "daily_participants": state.daily_participants,
            "weekly_weights": (
                None if state.weekly_weights is None
                else [float(w) for w in state.weekly_weights]),
            "start_times": {
                "offpeak_share": state.start_times.offpeak_share,
                "offpeak_range": list(state.start_times.offpeak_range),
                "peak_range": list(state.start_times.peak_range),
            },
            "duration_mixture": {
                "short_share": state.duration_mixture.short_share,
                "medium_share": state.duration_mixture.medium_share,
                "long_share": state.duration_mixture.long_share,
            },
        },
    }


def restore_state(payload: dict) -> SimState:
    """Rebuild a :class:`SimState` bit-identical to the captured one.

    Construction re-derives everything deterministic (population,
    topology, pool, directory) from the serialized config + seed; the
    captured mutable state is then overlaid on top.
    """
    config = config_from_dict(payload["config"])
    return overlay_state(SimState(config), payload)


def overlay_state(state: SimState, payload: dict) -> SimState:
    """Overlay a captured mutable-state payload onto a fresh state.

    The seam sharded resume needs: partition states are built from a
    *sliced* population the config alone cannot reproduce, so the
    caller constructs the state and this function applies the captured
    inventory on top.  :func:`restore_state` is the plain-config
    composition of construction + overlay.
    """
    if len(state.supernode_pool) != payload["pool_size"]:
        raise CheckpointCorruptError(
            f"deterministic reconstruction produced "
            f"{len(state.supernode_pool)} supernodes but the checkpoint "
            f"recorded {payload['pool_size']} — config/code drift?")
    state.rng_factory = RngFactory(payload["seed"])
    state.current_day = payload["current_day"]

    # Live set first (deploy resets online flags and rebuilds the
    # directory), then the per-node mutable fields on top.
    live = [state.supernode_pool[sn_id] for sn_id in payload["live_ids"]]
    if state.supernode_pool:
        deploy(state, live)
    state.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    for record in payload["supernodes"]:
        sn = state.supernode_pool[record["id"]]
        sn.online = record["online"]
        sn.throttle = record["throttle"]
        sn.supported_total = record["supported_total"]
        sn.connected = set(record["connected"])

    state.sticky = {player: sn for player, sn in payload["sticky"]}
    state.candidates._lists = {
        player: [CandidateEntry(sn_id, delay)
                 for sn_id, delay in entries]
        for player, entries in payload["candidates"]}

    try:
        state.ledger.load_columns(payload["ratings"])
        state.reputation.load_columns(payload["ratings"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointCorruptError(f"ratings: {exc}") from exc

    for record in payload["credits"]:
        state.credits.accounts[record["supernode_id"]] = \
            SupernodeAccount(**record)
    for dc, assignments in zip(state.datacenters, payload["datacenters"]):
        for player, server in assignments:
            dc.assign(player, server)
    state.server_latency_cache = {
        player: ms for player, ms in payload["server_latency_cache"]}

    if (payload["provisioner"] is None) != (state.provisioner is None):
        raise CheckpointCorruptError(
            "provisioner presence disagrees between checkpoint and "
            "reconstructed config")
    if state.provisioner is not None:
        model = state.provisioner._model
        model._history = [float(v) for v in
                          payload["provisioner"]["history"]]
        model._residuals = [float(v) for v in
                            payload["provisioner"]["residuals"]]
        model._last_forecast = payload["provisioner"]["last_forecast"]

    state.fault_outcomes = _summary_from_dict(payload["fault_outcomes"])
    if state.faults.active:
        state.faults.penalties = {
            player: fraction
            for player, fraction in payload["fault_penalties"]}
    elif payload["fault_penalties"]:
        raise CheckpointCorruptError(
            "checkpoint carries fault penalties but the config has no "
            "fault plan")

    workload = payload["workload"]
    state.daily_participants = workload["daily_participants"]
    state.weekly_weights = (
        None if workload["weekly_weights"] is None
        else np.asarray(workload["weekly_weights"], dtype=np.float64))
    starts = workload["start_times"]
    state.start_times = StartTimeModel(
        offpeak_share=starts["offpeak_share"],
        offpeak_range=tuple(starts["offpeak_range"]),
        peak_range=tuple(starts["peak_range"]))
    state.duration_mixture = DurationMixture(
        **workload["duration_mixture"])
    return state


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
def _session_rows(records) -> list[list]:
    return [[r.player, r.day, r.game, r.kind.value, r.target,
             r.response_latency_ms, r.server_latency_ms, r.continuity,
             r.satisfied, r.join_latency_ms]
            for r in records]


#: The :class:`RunResult` lists a running schedule only ever appends
#: to, each with the function turning a run of its items into payload
#: rows.  Their items are immutable (frozen records, floats), so an
#: encoded prefix stays valid while the list only grows.
_APPENDED = (("sessions", _session_rows), ("join_latencies_ms", list))


def _result_rest(result: RunResult) -> dict:
    """Every captured :class:`RunResult` field except ``_APPENDED``."""
    return {
        "days": [
            [d.day, d.online_players, d.supernode_players,
             d.cloud_players, d.cloud_bandwidth_mbps,
             d.mean_response_latency_ms, d.mean_server_latency_ms,
             d.mean_continuity, d.satisfied_ratio]
            for d in result.days],
        "supernode_join_latencies_ms":
            list(result.supernode_join_latencies_ms),
        "migration_latencies_ms": list(result.migration_latencies_ms),
        "assignment_wall_times_s": list(result.assignment_wall_times_s),
        "faults": _summary_to_dict(result.faults),
    }


def capture_result(result: RunResult) -> dict:
    """Serialize the accumulated accounting of a (partial) run."""
    payload = _result_rest(result)
    for name, rows in _APPENDED:
        payload[name] = rows(getattr(result, name))
    return payload


class _EncodedList:
    """Canonical JSON of one append-only list, extended by its new tail.

    The cached prefix is trusted only while the list is the same object,
    has not shrunk and still holds the last encoded item at the same
    position; otherwise the whole list is encoded again.
    """

    __slots__ = ("rows", "source", "count", "last", "text")

    def __init__(self, rows) -> None:
        self.rows = rows
        self.source: list | None = None
        self.count = 0
        self.last = None
        self.text = ""

    def encode(self, values: list) -> str:
        count = len(values)
        if values is not self.source or count < self.count or (
                self.count and values[self.count - 1] is not self.last):
            self.source, self.count, self.last, self.text = \
                values, 0, None, ""
        if count > self.count:
            tail = canonical_json(self.rows(values[self.count:]))[1:-1]
            self.text = f"{self.text},{tail}" if self.text else tail
            self.count, self.last = count, values[-1]
        return f"[{self.text}]"


class SnapshotEncoder:
    """Incremental ``canonical_json`` of :func:`capture_state` and
    :func:`capture_result` over the saves of one run.

    :meth:`encode_state` encodes the config once per config object:
    every dataclass in a :class:`SystemConfig` is frozen with tuple
    fields, so its text is a pure function of the object, and the text
    is reused while ``state.config`` is that object.  The mutable state
    is encoded afresh each time.  :meth:`encode_result` encodes only
    the session records and join latencies appended since the previous
    call; the mutable day rows, the fault summary and the small lists
    are encoded afresh each time.  The output is byte-identical to the
    one-shot encoding.
    """

    def __init__(self) -> None:
        self._config: SystemConfig | None = None
        self._config_text = ""
        self._lists = {name: _EncodedList(rows) for name, rows in _APPENDED}

    def encode_state(self, state: SimState) -> str:
        if state.config is not self._config:
            self._config = state.config
            self._config_text = canonical_json(config_to_dict(state.config))
        members = {name: canonical_json(value)
                   for name, value in _state_rest(state).items()}
        members["config"] = self._config_text
        return canonical_object(members)

    def encode_result(self, result: RunResult) -> str:
        members = {name: canonical_json(value)
                   for name, value in _result_rest(result).items()}
        for name, encoded in self._lists.items():
            members[name] = encoded.encode(getattr(result, name))
        return canonical_object(members)


def restore_result(payload: dict) -> RunResult:
    """Rebuild the :class:`RunResult` a resumed run keeps appending to."""
    result = RunResult()
    result.days = [
        DayMetrics(day=day, online_players=online,
                   supernode_players=supernode, cloud_players=cloud,
                   cloud_bandwidth_mbps=bandwidth,
                   mean_response_latency_ms=response,
                   mean_server_latency_ms=server,
                   mean_continuity=continuity,
                   satisfied_ratio=satisfied)
        for day, online, supernode, cloud, bandwidth, response, server,
        continuity, satisfied in payload["days"]]
    result.sessions = [
        SessionRecord(player=player, day=day, game=game,
                      kind=ConnectionKind(kind), target=target,
                      response_latency_ms=response,
                      server_latency_ms=server, continuity=continuity,
                      satisfied=satisfied, join_latency_ms=join)
        for player, day, game, kind, target, response, server,
        continuity, satisfied, join in payload["sessions"]]
    result.join_latencies_ms = list(payload["join_latencies_ms"])
    result.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    result.migration_latencies_ms = list(
        payload["migration_latencies_ms"])
    result.assignment_wall_times_s = list(
        payload["assignment_wall_times_s"])
    result.faults = _summary_from_dict(payload["faults"])
    return result
