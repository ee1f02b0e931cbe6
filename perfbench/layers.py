"""Per-layer tracing from outside the program.

:class:`Instrumentation` wraps the public functions each layer of the
simulator exposes — module globals the sweep resolves at call time,
methods looked up on their class, and the ``SUBCYCLE_STAGES`` tuple —
in spans of a private :class:`repro.obs.trace.Tracer`, and counts work
at the same boundaries.  Nothing under ``src/`` changes: used as a
context manager it installs the wrappers on entry and puts every
original back on exit.

Self times come from :func:`repro.obs.profile.phase_breakdown`.  Each
span's self time excludes its traced children, so the self times of all
spans plus the time outside any span (``run.residual``) add up to the
traced run's wall.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core import lifecycle, shard, sweep
from repro.faults import handlers
from repro.obs.profile import phase_breakdown
from repro.persist import Checkpointer
from repro.reputation.scores import ReputationTable

#: Span name of each subcycle stage, by the stage function's name.
STAGE_SPANS = {
    "stage_departures": "sweep.departures",
    "stage_faults": "sweep.faults",
    "stage_scenario": "sweep.scenario",
    "stage_arrivals": "sweep.arrivals",
}

#: The phases of one simulated day: candidates for the "dominant" check.
DAY_PHASES = ("sweep.departures", "sweep.faults", "sweep.scenario",
              "sweep.arrivals", "sweep.plans", "sweep.games", "scoring",
              "sweep.server_assignment", "reputation.refresh",
              "accounting.credit", "accounting.summarize",
              "sweep.provisioning", "persist.save")


class Instrumentation:
    """Span and count wrappers around every layer's entry points."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.counts: Counter = Counter()
        self.written_bytes = 0
        self._originals: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, fn, name: str, before=None, after=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            token = before(*args) if before is not None else None
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(out, token, *args)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _patch(self, owner, attr: str, name: str, before=None,
               after=None) -> None:
        original = owner.__dict__[attr]
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, before, after))

    def _count(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        count = self._count
        self._patch(sweep, "run_day", "sweep.day")
        self._patch(sweep, "sweep_day", "sweep.loop")
        self._patch(sweep, "sample_plans", "sweep.plans")
        self._patch(sweep, "choose_games", "sweep.games")
        self._patch(sweep, "score_sessions", "scoring",
                    after=lambda out, _t, *a: count("scoring.sessions",
                                                    len(out)))
        self._patch(sweep, "credit_contributors", "accounting.credit")
        self._patch(sweep, "summarize_day", "accounting.summarize")
        self._patch(sweep, "run_provisioning", "sweep.provisioning")
        self._patch(sweep, "run_server_assignment",
                    "sweep.server_assignment")
        self._patch(sweep, "deploy", "provisioning.deploy",
                    after=lambda *_: count("provisioning.redeploys"))
        self._patch(sweep, "join", "lifecycle.join",
                    after=lambda *_: count("lifecycle.joins"))
        self._patch(lifecycle, "select_supernode", "selection",
                    after=self._after_selection)
        self._patch(handlers, "migrate", "lifecycle.migrate",
                    after=lambda *_: count("lifecycle.migrations"))
        self._patch(handlers, "apply_faults", "faults.apply")
        self._patch(ReputationTable, "refresh", "reputation.refresh")
        self._patch(Checkpointer, "on_day_end", "persist.save",
                    before=lambda cp, *_: len(cp.written),
                    after=self._after_save)
        self._patch(shard, "build_partitions", "shard.build_partitions")
        self._patch(shard, "merge_results", "shard.merge")
        self._patch(shard, "run_schedule", "shard.partition")
        for attr in ("latest_valid_checkpoint", "overlay_state",
                     "restore_result"):
            self._patch(shard, attr, "persist.resume")
        self._originals.append((sweep, "SUBCYCLE_STAGES",
                                sweep.SUBCYCLE_STAGES))
        sweep.SUBCYCLE_STAGES = tuple(self._stage(fn)
                                      for fn in sweep.SUBCYCLE_STAGES)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- counting hooks ----------------------------------------------------
    def _stage(self, fn):
        name = STAGE_SPANS.get(fn.__name__, f"sweep.{fn.__name__}")
        if name == "sweep.arrivals":
            return self._wrap(fn, name, before=self._before_arrivals)
        if name == "sweep.departures":
            return self._wrap(fn, name, before=self._before_departures)
        if name == "sweep.scenario":
            return self._wrap(fn, name, before=self._pending,
                              after=self._after_scenario)
        return self._wrap(fn, name)

    @staticmethod
    def _pending(_state, ctx) -> int:
        return len(ctx.starts.get(ctx.subcycle, ()))

    def _before_arrivals(self, state, ctx) -> None:
        self._count("sweep.arrivals", self._pending(state, ctx))

    def _before_departures(self, _state, ctx) -> None:
        # The stage's own selection: live sessions on a supernode whose
        # play window ended with the previous subcycle.
        cols = ctx.sessions.columns
        self._count("sweep.departures", int(np.count_nonzero(
            (cols.active == 1) & (cols.end_subcycle == ctx.subcycle - 1)
            & (cols.supernode_id >= 0))))

    def _after_scenario(self, _out, pending, state, ctx) -> None:
        self._count("sweep.scenario_plans",
                    self._pending(state, ctx) - pending)

    def _after_selection(self, outcome, _token, *_args) -> None:
        self._count("selection.calls")
        self._count("selection.probed", outcome.candidates_probed)
        if outcome.supernode_id is not None:
            self._count("selection.fog")

    def _after_save(self, _out, written_before, checkpointer, *_args):
        for path in checkpointer.written[written_before:]:
            self._count("persist.saves")
            self.written_bytes += path.stat().st_size


def layer_table(tracer, wall_s: float, counts: Counter) -> dict:
    """Per-span-name rows (calls, inclusive, self) plus the residual.

    ``rows`` sorted by self time; ``residual_s`` is the traced wall not
    covered by any span, so ``sum(self_s) + residual_s == wall_s``.
    """
    rows = phase_breakdown(tracer.finished)
    self_total = sum(row["self_s"] for row in rows)
    return {
        "wall_s": wall_s,
        "self_total_s": self_total,
        "residual_s": wall_s - self_total,
        "rows": [{"name": row["name"], "calls": row["count"],
                  "total_s": row["total_s"], "self_s": row["self_s"]}
                 for row in rows],
        "counts": dict(counts),
    }


def _row(table: dict, name: str) -> dict:
    for row in table["rows"]:
        if row["name"] == name:
            return row
    return {"name": name, "calls": 0, "total_s": 0.0, "self_s": 0.0}


def per_layer_metrics(table: dict, faults, partition_walls,
                      written_bytes: int) -> dict:
    """The ``per_layer`` metric values of one traced run (name -> value).

    ``*_s`` metrics are inclusive span time at that layer's boundary
    (children included), except the two residuals: ``sweep.day_residual_s``
    is the self time of ``run_day`` (throttle re-roll, ratings loop and
    other unattributed work inside a day) and ``run.residual_s`` the wall
    outside every span.
    """
    counts = table["counts"]

    def total(name):
        return _row(table, name)["total_s"]

    calls = counts.get("selection.calls", 0)
    displaced = faults.displaced
    walls = list(partition_walls)
    return {
        "run.wall_s": table["wall_s"],
        "run.residual_s": table["residual_s"],
        "sweep.arrivals_s": total("sweep.arrivals"),
        "sweep.arrivals": counts.get("sweep.arrivals", 0),
        "sweep.departures_s": total("sweep.departures"),
        "sweep.departures": counts.get("sweep.departures", 0),
        "sweep.faults_s": total("sweep.faults"),
        "sweep.scenario_s": total("sweep.scenario"),
        "sweep.scenario_plans": counts.get("sweep.scenario_plans", 0),
        "lifecycle.join_s": total("lifecycle.join"),
        "lifecycle.joins": counts.get("lifecycle.joins", 0),
        "lifecycle.migrate_s": total("lifecycle.migrate"),
        "lifecycle.migrations": counts.get("lifecycle.migrations", 0),
        "selection.s": total("selection"),
        "selection.calls": calls,
        "selection.probed_per_call":
            counts.get("selection.probed", 0) / calls if calls else 0.0,
        "selection.fog_ratio":
            counts.get("selection.fog", 0) / calls if calls else 0.0,
        "scoring.s": total("scoring"),
        "scoring.sessions": counts.get("scoring.sessions", 0),
        "sweep.plans_s": total("sweep.plans"),
        "sweep.games_s": total("sweep.games"),
        "sweep.server_assignment_s": total("sweep.server_assignment"),
        "reputation.refresh_s": total("reputation.refresh"),
        "accounting.credit_s": total("accounting.credit"),
        "accounting.summarize_s": total("accounting.summarize"),
        "sweep.provisioning_s": total("sweep.provisioning"),
        "provisioning.redeploys": counts.get("provisioning.redeploys", 0),
        "faults.apply_s": total("faults.apply"),
        "faults.displaced": displaced,
        "faults.retries": faults.retries,
        "faults.recovered_ratio":
            faults.recovered / displaced if displaced else 0.0,
        "persist.save_s": total("persist.save"),
        "persist.saves": counts.get("persist.saves", 0),
        "persist.written_mb": written_bytes / 1e6,
        "persist.resume_s": total("persist.resume"),
        "shard.build_partitions_s": total("shard.build_partitions"),
        "shard.merge_s": total("shard.merge"),
        "shard.partition_wall_max_s": max(walls) if walls else 0.0,
        "shard.partition_wall_mean_s":
            sum(walls) / len(walls) if walls else 0.0,
        "sweep.day_residual_s": _row(table, "sweep.day")["self_s"],
    }


def check_predictions(table: dict, predictions) -> list[str]:
    """Mismatches between a traced run and its workload's predictions.

    ``dominant``: the named layers' summed inclusive time exceeds every
    other day phase's.  ``active``: every named layer ran at least once.
    ``idle``: none of the named layers ran.
    """
    problems = []
    for kind, names, detail in predictions:
        if kind == "dominant":
            ours = sum(_row(table, name)["total_s"] for name in names)
            rivals = [(phase, _row(table, phase)["total_s"])
                      for phase in DAY_PHASES if phase not in names]
            phase, worst = max(rivals, key=lambda item: item[1])
            if ours <= worst:
                problems.append(f"{detail}: {'+'.join(names)} took "
                                f"{ours:.3f} s, {phase} {worst:.3f} s")
        elif kind == "active":
            missing = [n for n in names if _row(table, n)["calls"] == 0]
            if missing:
                problems.append(f"{detail}: never ran: {missing}")
        elif kind == "idle":
            busy = [n for n in names if _row(table, n)["calls"] > 0]
            if busy:
                problems.append(f"{detail}: ran anyway: {busy}")
        else:
            raise ValueError(f"unknown prediction kind {kind!r}")
    return problems
