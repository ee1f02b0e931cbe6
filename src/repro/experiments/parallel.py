"""Parallel sweep execution across processes.

The comparison figures (6-8 and the PlanetLab companions) run
``len(player_counts) x len(VARIANTS)`` independent system simulations.
Every run is fully determined by its :class:`VariantTask` (named
per-day RNG streams derive from the config seed), so the runs can
execute in any order and on any process without changing a single bit
of the results — the parallel path is pinned against the sequential
one by tests.

Three deliberate choices:

* **Honest work planning.**  ``jobs > 1`` is a request to *finish the
  sweep fast with up to that many workers*, not a mandate to start
  processes.  Workers are clamped to the machine's core count (extra
  workers only thrash one core), and when the tasks are too small to
  amortize pool start-up (below :data:`MIN_TASK_PLAYER_DAYS` of
  simulated work per task) the sweep runs in-process instead, as a
  ``jobs <= 1`` sweep always does — with a shared population cache, since every task keyed by the same
  ``(seed, players, datacenters, capable share)`` deterministically
  builds the *same* population (:func:`repro.core.state.
  derive_population`), so a 4-variant comparison builds it once
  instead of four times.  Pool submission is chunked —
  contiguous task slices, one submit per worker — so IPC and worker
  warm-up amortize across a chunk, and chunk workers share the same
  population cache.  Results stay bit-identical to the naive
  sequential loop in every case.

* **One supervised pool.**  The chunks run as the tasks of
  :func:`repro.core.shard.run_supervised`, the process pool sharded
  runs use: it carries the parent's :func:`repro.obs.enabled` switch
  into every worker, runs each chunk under a fresh worker-local
  runtime, and merges the workers' metric dumps into the parent
  registry in task order, so counters and histograms come out
  identical to a sequential run.  A worker that dies restarts its
  chunk from scratch — bit-identical, since every task is
  deterministic.  Worker-side spans/time series stay worker-local
  (they describe runs, not the sweep); the parent keeps the
  sweep-level spans.
* **Ordered merge.**  Results and metric dumps come back in task
  order, never completion order, keeping callers
  (table builders indexing by ``(players, variant)``) deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .. import obs
from ..core.accounting import RunResult
from ..core.shard import run_supervised
from ..core.state import derive_population
from ..core.system import CloudFogSystem
from ..workload.population import Population
from .runner import variant_config
from .testbeds import Testbed

__all__ = ["MIN_TASK_PLAYER_DAYS", "VariantTask", "resolve_jobs",
           "plan_workers", "run_variants"]

#: Below this much simulated work per task (player-days, averaged over
#: the sweep) a process pool cannot amortize worker start-up and IPC;
#: the sweep runs in-process with the shared population cache instead.
MIN_TASK_PLAYER_DAYS = 5_000


@dataclass(frozen=True)
class VariantTask:
    """One independent simulation: a variant on a testbed with a seed."""

    variant: str
    testbed: Testbed
    seed: int = 0
    days: int = 3
    overrides: dict = field(default_factory=dict)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/1 sequential, 0 = all cores."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError(f"jobs must be non-negative, got {jobs}")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def plan_workers(tasks: list[VariantTask], jobs: int | None) -> int:
    """Worker processes ``run_variants`` starts for ``tasks`` (1 = none).

    More workers than cores only thrash the scheduler, and tasks below
    :data:`MIN_TASK_PLAYER_DAYS` of work on average never pay back pool
    start-up, so those run in-process with the shared population cache.
    """
    workers = min(resolve_jobs(jobs), len(tasks))
    if workers <= 1:
        return 1
    mean_work = (sum(t.testbed.num_players * t.days for t in tasks)
                 / len(tasks))
    if mean_work < MIN_TASK_PLAYER_DAYS:
        return 1
    return min(workers, os.cpu_count() or 1)


def _population_for(config, cache: dict) -> Population:
    """The config's population (:func:`repro.core.state.
    derive_population`) via a shared cache: tasks that share the key
    (e.g. every variant of one comparison sweep) share one build."""
    key = (config.seed, config.num_players, config.num_datacenters,
           config.supernode_capable_share)
    population = cache.get(key)
    if population is None:
        population = cache[key] = derive_population(config)
    return population


def _run_chunk(tasks: list[VariantTask], resume: bool = False
               ) -> list[RunResult]:
    """Run a contiguous task slice in this process, sharing population
    builds.  The supervised pool's task: ``resume`` is ignored — a
    restarted chunk runs again from scratch, bit-identically."""
    cache: dict = {}
    results = []
    for task in tasks:
        config = variant_config(task.variant, task.testbed, task.seed,
                                **task.overrides)
        system = CloudFogSystem(config,
                                population=_population_for(config, cache))
        with obs.get_tracer().span("run_variant", variant=task.variant,
                                   testbed=task.testbed.name,
                                   seed=task.seed, days=task.days,
                                   players=config.num_players):
            results.append(system.run(days=task.days))
    return results


def _chunk_evenly(tasks: list[VariantTask],
                  chunks: int) -> list[list[VariantTask]]:
    """Split into at most ``chunks`` contiguous, near-equal slices."""
    chunks = min(chunks, len(tasks))
    base, extra = divmod(len(tasks), chunks)
    out, start = [], 0
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        out.append(tasks[start:start + size])
        start += size
    return out


def run_variants(tasks, jobs: int | None = None) -> list[RunResult]:
    """Run every task and return results in task order.

    ``jobs`` <= 1 runs sequentially in-process (observability stays
    live), sharing one population build per key; ``jobs`` > 1 fans
    contiguous task chunks out over the supervised process pool
    (:func:`repro.core.shard.run_supervised`) unless the work plan
    decides one worker.  Results are identical either way — each
    task's randomness is self-contained.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    workers = plan_workers(tasks, jobs)
    registry = obs.get_registry()
    with obs.get_tracer().span("run_variants", tasks=len(tasks),
                               jobs=jobs, workers=workers):
        registry.counter("repro_sweep_tasks_total").inc(len(tasks))
        if workers <= 1:
            return _run_chunk(tasks)
        chunks = run_supervised(_run_chunk, _chunk_evenly(tasks, workers),
                                workers)
        return [result for chunk in chunks for result in chunk]
