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
   Captured: the supernode pool's mutable columns (throttle/online/
   supported_total/connected, as columns in pool-id order), the
   *ordered* live id list (fault targeting
   indexes into it; ``SweepLoads`` rows follow its order), sticky
   assignments, per-player candidate lists, the rating ledger (its
   pair table and append-only rating log, as columns) with the
   reputation score cache as one column aligned to the pair table (it
   cannot be recomputed — scores age by refresh day; both go through
   the reputation module's ``to_columns``/``load_columns``, which
   validate on load), credit accounts, per-datacenter player→server
   maps, the server-latency cache, the provisioner's ARIMA hidden state
   (``_history``/``_residuals``/``_last_forecast`` — the last is
   non-None at day boundaries once the model is ready), the fault
   penalty ledger, and the accumulated
   :class:`~repro.core.accounting.RunResult`, whose ``faults`` summary
   is the run's one fault ledger and whose session log is stored as its
   chunks' columns (``game`` and ``kind`` as the log's codes).  There
   is no workload member: the workload overrides (participation, start
   times, durations, game mix, timezone offsets, quality ceiling,
   downlink cap, flash crowds) are ``SystemConfig.workload``, so they
   travel in the serialized config and the restored state rebuilds
   them from it.

   Deliberately *not* captured, with reasons:

   * per-day session state — the :class:`~repro.core.state.
     SessionTable` and its :class:`~repro.core.columns.SessionColumns`
     rows live inside one ``sweep_day`` call and never cross a day
     boundary (§4.1: cycles do not wrap);

   * population/topology/transport/datacenter structure/CDN sites and
     the scenario stages (the config's flash crowds) — rebuilt
     deterministically from the serialized ``SystemConfig``;
   * the supernode pool's immutable columns, its ``available`` bytes
     and the directory's distance ranking — rebuilt from the config,
     and recomputed from the restored columns;
   * ``state.game_code`` — rebuilt whole by ``choose_games`` at each
     day start before any read;
   * supernode ``throttle`` *semantics*: captured for robustness, but
     ``SupernodePool.roll_throttle`` re-rolls it unconditionally at
     day start;
   * failure-detection state — the
     :class:`~repro.faults.detection.FailureDetector` is a frozen
     member of the config's fault plan;
   * obs tracer/registry — telemetry, not simulation state.  The
     accumulated telemetry (time-series samples, event log and metrics
     dump) does ride along, but at the checkpoint layer — an optional
     ``telemetry`` payload key written by
     :func:`~repro.persist.checkpoint.save_checkpoint` via
     :func:`repro.obs.capture_telemetry` — precisely so this
     simulation-state inventory stays simulation-only.

Payloads are pure JSON values.  ``json`` round-trips finite floats
exactly, and integer dict keys are stored as explicit pairs (JSON
object keys are strings) in original insertion order.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..core.accounting import (SESSION_COLUMNS, DayMetrics, RunResult,
                               SessionLog)
from ..core.candidates import CandidateEntry
from ..core.config import SystemConfig
from ..core.state import SimState, deploy
from ..economics.ledger import SupernodeAccount
from ..faults import FAULT_COUNTS, FaultSummary
from ..faults.plan import FaultPlan
from ..sim.cycles import Schedule
from ..sim.rng import RngFactory
from ..workload.overrides import WorkloadOverrides
from .codec import CheckpointCorruptError, canonical_json, canonical_object

__all__ = ["config_to_dict", "config_from_dict", "capture_state",
           "restore_state", "overlay_state", "capture_result",
           "restore_result", "SnapshotEncoder"]

#: The pool's captured columns, in pool-id order.
_POOL_COLUMNS = ("online", "throttle", "supported_total", "connected")


# ----------------------------------------------------------------------
# config
# ----------------------------------------------------------------------
def config_to_dict(config: SystemConfig) -> dict:
    """A JSON-ready dict capturing every :class:`SystemConfig` field."""
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
    data["workload"] = WorkloadOverrides.from_dict(data["workload"])
    return SystemConfig(**data)


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
    pool = state.supernode_pool
    return {
        "seed": state.rng_factory.seed,
        "current_day": state.current_day,
        "pool_size": len(pool),
        "supernodes": {
            "online": pool.online.tolist(),
            "throttle": pool.throttle.tolist(),
            "supported_total": pool.supported_total.tolist(),
            "connected": [sorted(players) for players in pool.connected]},
        # Ordered: fault targeting draws indices into this list and
        # SweepLoads rows follow its order, so a set would not do.
        "live_ids": list(state.live_supernodes),
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
        "fault_penalties": (
            [[player, fraction] for player, fraction
             in state.faults.penalties.items()]
            if state.faults.active else []),
    }


def _check_supernode_ids(field: str, rows, ids, pool_size: int) -> None:
    """Reject a supernode id outside ``[0, pool_size)``.

    ``ids[i]`` sits at row ``rows[i]`` of the payload's ``field``; the
    error names the field and the row of the first bad id.
    """
    try:
        values = np.asarray(ids, dtype=np.int64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointCorruptError(f"{field}: {exc}") from exc
    bad = np.flatnonzero((values < 0) | (values >= pool_size))
    if bad.size:
        first = int(bad[0])
        raise CheckpointCorruptError(
            f"{field}[{rows[first]}]: supernode id {ids[first]!r} lies "
            f"outside the pool's [0, {pool_size})")


def _check_payload_ids(payload: dict, pool_size: int) -> None:
    """Every pool column must cover the pool, and every supernode id
    the payload names must index it."""
    live = payload["live_ids"]
    _check_supernode_ids("live_ids", range(len(live)), live, pool_size)
    for name in _POOL_COLUMNS:
        column = payload["supernodes"][name]
        if len(column) != pool_size:
            raise CheckpointCorruptError(
                f"supernodes.{name}: {len(column)} values for a pool of "
                f"{pool_size}")
    sticky = payload["sticky"]
    _check_supernode_ids("sticky", range(len(sticky)),
                         [sid for _, sid in sticky], pool_size)
    rows, ids = [], []
    for row, (_, entries) in enumerate(payload["candidates"]):
        rows += [row] * len(entries)
        ids += [sid for sid, _ in entries]
    _check_supernode_ids("candidates", rows, ids, pool_size)


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
    pool = state.supernode_pool
    if len(pool) != payload["pool_size"]:
        raise CheckpointCorruptError(
            f"deterministic reconstruction produced {len(pool)} "
            f"supernodes but the checkpoint recorded "
            f"{payload['pool_size']} — config/code drift?")
    _check_payload_ids(payload, len(pool))
    state.rng_factory = RngFactory(payload["seed"])
    state.current_day = payload["current_day"]

    # Live list first (deploy resets the online column), then the
    # per-id mutable columns on top, then the availability bytes.
    if len(pool):
        deploy(state, payload["live_ids"])
    state.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    columns = payload["supernodes"]
    pool.online[:] = columns["online"]
    pool.throttle[:] = columns["throttle"]
    pool.supported_total[:] = columns["supported_total"]
    pool.connected[:] = [set(players) for players in columns["connected"]]
    pool.sync_available()

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

    if state.faults.active:
        state.faults.penalties = {
            player: fraction
            for player, fraction in payload["fault_penalties"]}
    elif payload["fault_penalties"]:
        raise CheckpointCorruptError(
            "checkpoint carries fault penalties but the config has no "
            "fault plan")

    return state


# ----------------------------------------------------------------------
# RunResult
# ----------------------------------------------------------------------
def _chunk_columns(chunk: dict) -> dict:
    """One :class:`SessionLog` chunk as a payload object: every column's
    values, with 0.0 for the join latency where ``joined`` is false
    (JSON has no NaN; restore puts it back)."""
    columns = {name: chunk[name].tolist() for name in SESSION_COLUMNS}
    columns["join_latency_ms"] = np.where(
        chunk["joined"], chunk["join_latency_ms"], 0.0).tolist()
    return columns


def _restore_sessions(chunks: list) -> SessionLog:
    """The session log of a payload's chunk objects, one chunk each."""
    log = SessionLog()
    for index, columns in enumerate(chunks):
        try:
            joined = np.asarray(columns["joined"], dtype=bool)
            log.extend(SessionLog.of(**{
                **columns, "join_latency_ms": np.where(
                    joined, columns["join_latency_ms"], np.nan)}))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CheckpointCorruptError(
                f"sessions[{index}]: {exc!r}") from exc
    return log


#: The :class:`RunResult` sequences a running schedule only ever appends
#: to: each entry names the result field, the append-only list of items
#: it grows by, and the function turning a run of those items into
#: payload values.  The items are immutable (read-only session-log
#: chunks, floats), so an encoded prefix stays valid while the list only
#: grows.
_APPENDED = (
    ("sessions", lambda result: result.sessions.chunks,
     lambda chunks: [_chunk_columns(chunk) for chunk in chunks]),
    ("join_latencies_ms", lambda result: result.join_latencies_ms, list),
)


def _result_rest(result: RunResult) -> dict:
    """Every captured :class:`RunResult` field except ``_APPENDED``."""
    return {
        "days": [list(dataclasses.astuple(day)) for day in result.days],
        "supernode_join_latencies_ms":
            list(result.supernode_join_latencies_ms),
        "migration_latencies_ms": list(result.migration_latencies_ms),
        "assignment_wall_times_s": list(result.assignment_wall_times_s),
        "faults": dataclasses.asdict(result.faults),
    }


def capture_result(result: RunResult) -> dict:
    """Serialize the accumulated accounting of a (partial) run."""
    payload = _result_rest(result)
    for name, items, to_payload in _APPENDED:
        payload[name] = to_payload(items(result))
    return payload


class _EncodedList:
    """Canonical JSON of one append-only list, extended by its new tail.

    The cached prefix is trusted only while the list is the same object,
    has not shrunk and still holds the last encoded item at the same
    position; otherwise the whole list is encoded again.  For the
    session log the list is its ``chunks``: a restored or merged log is
    a new list of new chunks, so its first save encodes it whole.
    """

    __slots__ = ("to_payload", "source", "count", "last", "text")

    def __init__(self, to_payload) -> None:
        self.to_payload = to_payload
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
            tail = canonical_json(
                self.to_payload(values[self.count:]))[1:-1]
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
    the session-log chunks and join latencies appended since the
    previous call; the mutable day rows, the fault summary and the small
    lists are encoded afresh each time.  The output is byte-identical to
    the one-shot encoding.
    """

    def __init__(self) -> None:
        self._config: SystemConfig | None = None
        self._config_text = ""
        self._lists = {name: (items, _EncodedList(to_payload))
                       for name, items, to_payload in _APPENDED}

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
        for name, (items, encoded) in self._lists.items():
            members[name] = encoded.encode(items(result))
        return canonical_object(members)


def restore_result(payload: dict) -> RunResult:
    """Rebuild the :class:`RunResult` a resumed run keeps appending to."""
    result = RunResult()
    result.days = [DayMetrics(*row) for row in payload["days"]]
    result.sessions = _restore_sessions(payload["sessions"])
    result.join_latencies_ms = list(payload["join_latencies_ms"])
    result.supernode_join_latencies_ms = list(
        payload["supernode_join_latencies_ms"])
    result.migration_latencies_ms = list(
        payload["migration_latencies_ms"])
    result.assignment_wall_times_s = list(
        payload["assignment_wall_times_s"])
    faults = payload["faults"]
    result.faults = FaultSummary(
        **{name: faults[name] for name in FAULT_COUNTS},
        time_to_recover_ms=list(faults["time_to_recover_ms"]))
    return result
