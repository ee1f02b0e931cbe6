"""Geographic sharding: per-region partitions, parallel sweeps, ordered merge.

The day sweep is embarrassingly parallel *across regions*: a player
joins supernodes near it, its datacenter is the nearest one, and the
social machinery (game choice, server assignment) only reads friend
edges.  This module exploits that by splitting one configured run into
**fixed logical partitions — one per datacenter region** — each a
complete, independent :class:`~repro.core.state.SimState` over the
players whose nearest datacenter is that region's, executed with the
ordinary staged sweep pipeline and merged deterministically afterwards.

Three properties make the scheme reproducible:

* **Partitioning is derived, not drawn.**  The parent population is
  built exactly the way an unsharded :class:`SimState` builds it (the
  ``population`` stream of the run seed), and players are split by
  ``argmin`` over the player-datacenter distance matrix.  Same config,
  same partitions — always.
* **Shard count is worker parallelism only.**  ``shards`` says how many
  processes execute the partitions; the partitions themselves (and each
  partition's seed, derived via
  ``RngFactory(seed).spawn("shard-{k}")``) never depend on it.  Runs
  with 1, 2 or 4 shards are bit-identical by construction, which the
  determinism tests in ``tests/persist`` pin.
* **The merge is ordered.**  Partition results are folded in ascending
  region order: session lists and latency samples concatenate, day
  aggregates combine as sums/weighted means in that fixed order, fault
  summaries merge counter-wise.  Float reductions therefore associate
  the same way every run.

Sharded semantics differ from an unsharded run by design (friendships
crossing region borders are dropped, each region provisions and pools
supernodes independently, per-region egress budgets), so sharded
outputs get their *own* golden pins rather than claiming equality with
the unsharded digests — the toggle discipline of DESIGN.md §12.

Checkpoint/resume composes per partition: each partition checkpoints
into its own ``shard-NN/`` subdirectory, and resume rebuilds the
partition states deterministically from the parent config — workload
overrides and flash crowds included, since they are
``SystemConfig.workload`` — before overlaying the captured mutable
state (:func:`repro.persist.snapshot.overlay_state`).

The parallel runner is itself **self-healing**, and it is the one
process pool of the package (:func:`run_supervised`; the variant sweeps
of ``experiments.parallel`` run on it too): a worker process that
dies (OOM-killed, SIGKILLed, segfaulted) breaks the pool, and the
supervisor restarts the unfinished partitions — each resuming from the
latest *digest-valid* checkpoint
in its shard directory (corrupt files fall back to the previous day's
snapshot), or from scratch when none exists — up to ``max_restarts``
times per partition.  Because resume is bit-identical by construction,
a healed run merges to exactly the digest an uninterrupted run
produces, which ``tests/persist/test_shard_determinism.py`` pins by
SIGKILLing a worker mid-run.  An optional ``heartbeat_timeout_s``
additionally treats a pool that completes nothing and writes no new
checkpoint for a whole window as stalled and recycles it through the
same restart path.  With observability on, each worker's metrics dump
merges into the parent registry in partition order, and a partition
healed from a checkpoint starts from the metrics dump that checkpoint
carries, so the parent's counters and histograms match a 1-shard run's
whether a restart began from scratch or from a checkpoint (apart from
the restart and checkpoint-load counters).
"""

from __future__ import annotations

import os
import signal
import time
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .. import obs
from ..network.bandwidth import LinkBandwidths
from ..network.topology import Topology
from ..persist.checkpoint import (CHECKPOINT_GLOB, Checkpointer,
                                  latest_valid_checkpoint)
from ..persist.snapshot import overlay_state, restore_result
from ..sim.rng import RngFactory
from ..social.graph import FriendGraph
from ..workload.population import Population
from .accounting import SESSION_COLUMNS, DayMetrics, RunResult, SessionLog
from .config import SystemConfig
from .state import SimState, derive_population
from .sweep import run_schedule

__all__ = ["ShardPartition", "build_partitions", "run_sharded",
           "resume_sharded", "merge_results", "run_supervised"]


@dataclass(frozen=True)
class ShardPartition:
    """One region's slice of a sharded run.

    ``player_ids`` holds the *global* ids of the partition's players in
    ascending order; local player ``i`` inside the partition is global
    player ``player_ids[i]``.  ``config`` is the parent config with the
    partition's population size, infrastructure share and derived seed.
    """

    index: int
    region: int
    player_ids: np.ndarray
    config: SystemConfig
    population: Population


def _largest_remainder_split(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` proportionally to ``weights`` (integer, exact).

    Largest-remainder apportionment with ties broken by position, so
    the split is deterministic and sums exactly to ``total``.
    """
    denom = sum(weights)
    if denom == 0 or total == 0:
        return [0] * len(weights)
    quotas = [total * w / denom for w in weights]
    floors = [int(q) for q in quotas]
    leftover = total - sum(floors)
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: (-(quotas[i] - floors[i]), i))
    for i in by_remainder[:leftover]:
        floors[i] += 1
    return floors


def _slice_population(parent: Population, player_ids: np.ndarray
                      ) -> Population:
    """The sub-population over ``player_ids``, relabelled to local ids.

    Coordinates, access delays and link capacities are row slices of the
    parent arrays; the friend graph keeps only intra-partition edges
    (cross-region friendships are dropped — the documented semantic
    difference of sharded runs).  All datacenters stay visible so every
    latency a partition computes matches what the player saw globally.
    """
    topo = parent.topology
    local = {int(g): i for i, g in enumerate(player_ids)}
    sub_topo = Topology(
        region=topo.region,
        latency_model=topo.latency_model,
        player_coords=topo.player_coords[player_ids].copy(),
        player_access_ms=topo.player_access_ms[player_ids].copy(),
        player_links=LinkBandwidths(
            download_mbps=topo.player_links.download_mbps[player_ids].copy(),
            upload_mbps=topo.player_links.upload_mbps[player_ids].copy()),
        datacenter_coords=topo.datacenter_coords,
    )
    friends = FriendGraph(len(player_ids))
    adjacency = parent.friends.adjacency()
    for g, i in local.items():
        for neighbour in adjacency[g]:
            j = local.get(neighbour)
            if j is not None and i < j:
                friends.add_friendship(i, j)
    return Population(
        topology=sub_topo,
        friends=friends,
        supernode_capable=parent.supernode_capable[player_ids].copy())


def build_partitions(config: SystemConfig) -> list[ShardPartition]:
    """Derive the fixed logical partitions of a configured run.

    One partition per *non-empty* datacenter region, in region order.
    The parent population is built exactly as an unsharded
    :class:`SimState` would build it, so the partitioning depends only
    on the config — never on how many workers later execute it.
    """
    parent = derive_population(config)
    nearest = np.argmin(parent.topology.player_datacenter_distances(),
                        axis=1)
    regions = [r for r in range(config.num_datacenters)
               if np.any(nearest == r)]
    members = [np.flatnonzero(nearest == r) for r in regions]
    weights = [len(ids) for ids in members]
    supernode_split = _largest_remainder_split(config.num_supernodes,
                                               weights)
    cdn_split = _largest_remainder_split(config.num_cdn_servers, weights)
    factory = RngFactory(config.seed)
    partitions = []
    for index, (region, player_ids) in enumerate(zip(regions, members)):
        part_config = replace(
            config,
            num_players=int(len(player_ids)),
            num_supernodes=supernode_split[index],
            num_cdn_servers=max(1, cdn_split[index])
            if config.mode == "cdn" else config.num_cdn_servers,
            seed=factory.spawn(f"shard-{index}").seed)
        partitions.append(ShardPartition(
            index=index,
            region=region,
            player_ids=player_ids,
            config=part_config,
            population=_slice_population(parent, player_ids)))
    return partitions


def merge_results(parts: list[RunResult],
                  partitions: list[ShardPartition]) -> RunResult:
    """Fold per-partition results into one run, in partition order.

    Counts and bandwidth sum; per-day means combine weighted by each
    partition's online players; each partition's session log is
    re-labelled back to global player ids with one take (the ``target``
    column stays partition-local —
    supernode ids only mean anything inside their partition's pool).
    Every float reduction runs left-to-right over ascending partition
    index, so the merged result is identical however the partitions
    were scheduled.
    """
    if len(parts) != len(partitions):
        raise ValueError("one result per partition required")
    if not parts:
        return RunResult()
    merged = RunResult()
    num_days = len(parts[0].days)
    if any(len(p.days) != num_days for p in parts):
        raise ValueError("partitions measured different day counts")
    for d in range(num_days):
        rows = [p.days[d] for p in parts]
        if any(r.day != rows[0].day for r in rows):
            raise ValueError("partitions disagree on measured day numbers")
        online = sum(r.online_players for r in rows)
        day = DayMetrics(
            day=rows[0].day,
            online_players=online,
            supernode_players=sum(r.supernode_players for r in rows),
            cloud_players=sum(r.cloud_players for r in rows),
            cloud_bandwidth_mbps=float(
                sum(r.cloud_bandwidth_mbps for r in rows)))
        if online > 0:
            day.mean_response_latency_ms = float(
                sum(r.mean_response_latency_ms * r.online_players
                    for r in rows) / online)
            day.mean_server_latency_ms = float(
                sum(r.mean_server_latency_ms * r.online_players
                    for r in rows) / online)
            day.mean_continuity = float(
                sum(r.mean_continuity * r.online_players
                    for r in rows) / online)
            day.satisfied_ratio = float(
                sum(r.satisfied_ratio * r.online_players
                    for r in rows) / online)
        merged.days.append(day)
    for part, partition in zip(parts, partitions):
        columns = {name: part.sessions.column(name)
                   for name in SESSION_COLUMNS}
        columns["player"] = partition.player_ids[columns["player"]]
        merged.sessions.extend(SessionLog.of(**columns))
        merged.join_latencies_ms.extend(part.join_latencies_ms)
        merged.supernode_join_latencies_ms.extend(
            part.supernode_join_latencies_ms)
        merged.migration_latencies_ms.extend(part.migration_latencies_ms)
        merged.assignment_wall_times_s.extend(part.assignment_wall_times_s)
        merged.faults.merge(part.faults)
    return merged


def _shard_dir(checkpoint_dir, index: int) -> Path:
    return Path(checkpoint_dir) / f"shard-{index:02d}"


def _compose_hooks(*hooks):
    """Chain day-end hooks (Nones dropped), preserving order."""
    chain = [hook for hook in hooks if hook is not None]
    if not chain:
        return None
    if len(chain) == 1:
        return chain[0]

    def composed(state, day, result, total_days):
        for hook in chain:
            hook(state, day, result, total_days)
    return composed


def _test_kill_hook(index: int):
    """Crash-recovery test seam: SIGKILL this worker at a chosen day.

    Armed by ``REPRO_SHARD_TEST_KILL=<index>:<day>:<sentinel-path>`` in
    the worker's environment.  The sentinel file makes the kill
    one-shot — the restarted worker sees it and runs to completion —
    and the hook is composed *after* the checkpointer's, so the dying
    day's checkpoint is already on disk when the process vanishes.
    Never armed outside the test suite.
    """
    spec = os.environ.get("REPRO_SHARD_TEST_KILL")
    if not spec:
        return None
    kill_index, kill_day, sentinel = spec.split(":", 2)
    if int(kill_index) != index:
        return None
    day_to_die = int(kill_day)

    def hook(state, day, result, total_days):
        if day == day_to_die and not Path(sentinel).exists():
            Path(sentinel).write_text("killed")
            os.kill(os.getpid(), signal.SIGKILL)
    return hook


def _test_hang_hook(index: int):
    """Stall-recovery test seam: wedge this worker at a chosen day.

    Armed by ``REPRO_SHARD_TEST_HANG=<index>:<day>:<sentinel-path>``;
    the hook writes the sentinel and then sleeps forever, so the worker
    keeps its process alive but makes no progress — exactly the state
    the supervisor's heartbeat (no completions, no new checkpoints for
    a whole window) must detect and recycle.  One-shot via the
    sentinel, like :func:`_test_kill_hook`.
    """
    spec = os.environ.get("REPRO_SHARD_TEST_HANG")
    if not spec:
        return None
    hang_index, hang_day, sentinel = spec.split(":", 2)
    if int(hang_index) != index:
        return None
    day_to_hang = int(hang_day)

    def hook(state, day, result, total_days):
        if day == day_to_hang and not Path(sentinel).exists():
            Path(sentinel).write_text("hung")
            while True:
                time.sleep(0.05)
    return hook


def _run_partition(partition: ShardPartition, days: int | None,
                   checkpoint_dir, checkpoint_every: int,
                   extra_hook=None, configure=None,
                   resume: bool = False) -> RunResult:
    """Run one partition's schedule in the current process.

    With ``resume`` the partition continues from its newest
    digest-valid checkpoint: a corrupt latest checkpoint falls back to
    the previous day's snapshot
    (:func:`repro.persist.checkpoint.latest_valid_checkpoint`), and with
    nothing valid on disk the partition runs from scratch —
    bit-identical either way, because resume replays the exact
    day-scoped RNG schedule.  The partition config carries the run's
    workload overrides, so a rebuilt state has the original run's flash
    crowds and the rest; ``configure`` (extra hooks) is applied to the
    fresh state *before* any snapshot overlay.  The partition records
    its metrics in its own registry (:func:`repro.obs.scoped_metrics`),
    added to the live one when it finishes, so its checkpoints carry
    its metrics only and a resume starts from that dump (the time series
    and events stay out of sharded runs).
    """
    directory = _shard_dir(checkpoint_dir, partition.index) \
        if checkpoint_dir is not None else None
    found = latest_valid_checkpoint(directory) \
        if resume and directory is not None and directory.is_dir() \
        else None
    if found is not None:
        path, payload = found
        if payload["state"]["config"]["num_players"] != \
                partition.config.num_players:
            raise ValueError(
                f"checkpoint {path} does not match partition "
                f"{partition.index} of this config")
    with obs.scoped_metrics():
        state = SimState(partition.config, population=partition.population)
        if configure is not None:
            configure(state)
        result, start_day = None, 0
        if found is not None:
            state = overlay_state(state, payload["state"])
            result = restore_result(payload["result"])
            start_day = payload["day"] + 1
            telemetry = payload.get("telemetry")
            if telemetry is not None and obs.enabled():
                obs.get_registry().merge_dump(telemetry["metrics"])
            obs.get_registry().counter("repro_checkpoint_loads_total").inc()
            if days is None:
                days = payload["run"]["total_days"]
        hook = None
        if directory is not None:
            hook = Checkpointer(directory, every=checkpoint_every).on_day_end
        return run_schedule(state, days, result=result, start_day=start_day,
                            on_day_end=_compose_hooks(hook, extra_hook))


def _partition_worker(args, resume: bool) -> RunResult:
    """Supervised task: rebuild one partition and run it.

    Workers receive the parent config and a partition index instead of
    a pickled partition — rebuilding is deterministic and cheaper than
    shipping a population across the process boundary.  ``resume``
    marks a restart after a worker death: the partition continues from
    its newest valid checkpoint instead of starting over.
    """
    config, index, days, checkpoint_dir, checkpoint_every, configure = args
    partition = build_partitions(config)[index]
    extra_hook = _compose_hooks(_test_kill_hook(index),
                                _test_hang_hook(index))
    return _run_partition(partition, days, checkpoint_dir,
                          checkpoint_every, extra_hook, configure=configure,
                          resume=resume)


def _checkpoint_signature(checkpoint_dir, indexes) -> frozenset | None:
    """Fingerprint of the checkpoint files the pending shards have
    written — the supervisor's progress heartbeat."""
    if checkpoint_dir is None:
        return None
    names = set()
    for index in indexes:
        directory = _shard_dir(checkpoint_dir, index)
        if directory.is_dir():
            names.update((index, path.name)
                         for path in directory.glob(CHECKPOINT_GLOB))
    return frozenset(names)


def _run_task(task, argument, resume: bool, observed: bool) -> tuple:
    """Worker wrapper: ``(task(argument, resume), registry dump or None)``.

    When the parent observes, the task runs under a fresh runtime —
    fork-started workers inherit the parent's live objects, and reusing
    them would double-count across tasks — whose metrics dump travels
    home for the parent-side merge.  Spans, time series and events stay
    worker-local.
    """
    if not observed:
        return task(argument, resume), None
    obs.enable()
    try:
        return task(argument, resume), obs.get_registry().as_dict()
    finally:
        obs.disable()


def run_supervised(task, arguments: list, workers: int,
                   max_restarts: int = 2,
                   heartbeat_timeout_s: float | None = None,
                   progress=lambda pending: None) -> list:
    """Run ``task(arguments[i], resume)`` for every ``i`` over a
    self-healing process pool; return the values in index order.

    ``task`` must be picklable and deterministic.  On a worker death
    (``BrokenProcessPool`` — the whole pool is poisoned) or a heartbeat
    stall the supervisor rebuilds the pool and resubmits the unfinished
    tasks with ``resume=True``; it raises once any task exceeds
    ``max_restarts`` restarts.  With ``heartbeat_timeout_s`` set, a
    window in which no task completes and ``progress(pending)`` (a
    fingerprint of on-disk progress) does not change is a stall.

    When the parent observes, every task's metrics dump merges into the
    parent registry in index order after collection; a restarted task
    contributes the dump of the attempt that survived.
    """
    registry = obs.get_registry()
    outcomes: dict[int, tuple] = {}
    pending = set(range(len(arguments)))
    restarts = dict.fromkeys(pending, 0)
    resume = dict.fromkeys(pending, False)
    while pending:
        with ProcessPoolExecutor(
                max_workers=min(workers, len(pending))) as pool:
            futures = {pool.submit(_run_task, task, arguments[index],
                                   resume[index], obs.enabled()): index
                       for index in sorted(pending)}
            broken = False
            last_progress = progress(pending)
            not_done = set(futures)
            while not_done and not broken:
                done, not_done = wait(not_done,
                                      timeout=heartbeat_timeout_s)
                for future in done:
                    index = futures[future]
                    try:
                        outcomes[index] = future.result()
                        pending.discard(index)
                    except BrokenProcessPool:
                        broken = True
                if broken or not not_done:
                    break
                if not done and heartbeat_timeout_s is not None:
                    progress_now = progress(pending)
                    if progress_now == last_progress:
                        # Nothing finished and nothing checkpointed for
                        # a whole heartbeat window: declare the pool
                        # stalled and recycle it through the restart
                        # path (termination breaks the pool exactly
                        # like a worker death).
                        registry.counter(
                            "repro_shard_stalls_total").inc()
                        for process in getattr(pool, "_processes",
                                               {}).values():
                            process.terminate()
                        broken = True
                    last_progress = progress_now
            if broken:
                for index in sorted(pending):
                    restarts[index] += 1
                    resume[index] = True
                    if restarts[index] > max_restarts:
                        raise RuntimeError(
                            f"worker for task {index} died or stalled "
                            f"{restarts[index]} times "
                            f"(max_restarts={max_restarts}); giving up")
                registry.counter("repro_shard_restarts_total").inc(
                    len(pending))
                obs.get_events().emit("shard_restart",
                                      tasks=sorted(pending))
    values = []
    for index in range(len(arguments)):
        value, dump = outcomes[index]
        if dump is not None:
            registry.merge_dump(dump)
        values.append(value)
    return values


def run_sharded(config: SystemConfig, days: int | None = None, *,
                shards: int = 1, checkpoint_dir=None,
                checkpoint_every: int = 1, max_restarts: int = 2,
                heartbeat_timeout_s: float | None = None,
                configure=None) -> RunResult:
    """Run a config as per-region partitions and merge the results.

    ``shards`` is pure worker parallelism: 1 executes the partitions
    sequentially in-process, more fans them out over a process pool
    (capped at the machine's core count — extra workers only thrash).
    The merged result is bit-identical for every ``shards`` value.

    The pooled path is supervised: a worker that dies is restarted
    from its shard's newest valid checkpoint (or from scratch without
    one) up to ``max_restarts`` times per partition, and — when
    ``heartbeat_timeout_s`` is set — a pool that completes nothing and
    writes no new checkpoint for a whole window is recycled the same
    way.  Healed runs merge bit-identically to uninterrupted ones.

    Each partition's config carries the run's workload overrides
    (``SystemConfig.workload``).  ``configure`` is an optional callable
    applied to every partition's freshly built :class:`SimState`, for
    hooks outside the config (instrumentation stages appended to
    ``state.scenario_stages``, say).  It must be picklable when
    ``shards > 1`` — worker processes rebuild partitions locally and
    re-apply it.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if max_restarts < 0:
        raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
    partitions = build_partitions(config)
    workers = min(shards, len(partitions), os.cpu_count() or 1)
    if workers <= 1:
        parts = [_run_partition(p, days, checkpoint_dir, checkpoint_every,
                                configure=configure)
                 for p in partitions]
    else:
        parts = run_supervised(
            _partition_worker,
            [(config, p.index, days, checkpoint_dir, checkpoint_every,
              configure) for p in partitions],
            workers, max_restarts, heartbeat_timeout_s,
            progress=partial(_checkpoint_signature, checkpoint_dir))
    return merge_results(parts, partitions)


def resume_sharded(config: SystemConfig, checkpoint_dir, *,
                   days: int | None = None, shards: int = 1,
                   checkpoint_every: int = 1,
                   configure=None) -> RunResult:
    """Resume a sharded run from its per-partition checkpoints.

    Partitions are rebuilt deterministically from the parent config;
    each one resumes from the newest digest-valid checkpoint in its
    ``shard-NN/`` subdirectory — a corrupt file falls back to the
    previous day's snapshot — or runs from scratch with none, then the
    results merge exactly as in :func:`run_sharded`.  The workload
    comes back with the config; ``configure`` is re-applied as in
    :func:`run_sharded`.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    partitions = build_partitions(config)
    parts = [_run_partition(partition, days, checkpoint_dir,
                            checkpoint_every, configure=configure,
                            resume=True)
             for partition in partitions]
    return merge_results(parts, partitions)
