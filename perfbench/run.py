"""CloudFog simulator benchmark: three paper workloads, one command.

Usage::

    python3 perfbench/run.py --workload paper-fog --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  The workloads (``workloads.py``) are
``paper-fog``, ``cloud-only`` and ``outage-sharded``; their inputs are
built from ``--seed``.  Each repetition runs in a fresh process
(``rep.py``), so peak RSS and set-up time are per repetition.
Repetitions run back to back until ``--seconds`` have passed (at least
three for a timed run), and the host metrics are their medians.

``--trace 0`` prints every end-to-end metric: set-up time, simulated
sessions per second, peak RSS and the run's QoE results.  Timed
repetitions sample host speed (``hostspeed.py``) and their times are
nominal seconds, so a slower co-tenant phase of the shared host does not
read as a slower simulator; the raw host-second figures are printed
beside them.
``--trace 1`` alternates untraced and traced repetitions and prints the
per-layer metrics of the traced ones (span self and inclusive times with
counts), the tracing overhead, and writes the span JSONL and layer table
under ``.perfbench-run/``.  Every repetition's outputs are checked; a
failed check or a crashed repetition marks all its sessions failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
simulator's sources (``src/repro``) the command exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
from statistics import fmean, median
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench-run"
REP_TIMEOUT_S = 150
#: Populations a run pools its simulated figures over.
SUBRUNS = 4
SETUPS_PER_REP = 5

#: End-to-end metrics: name -> unit.  Simulated ones come from the model.
END_TO_END = {
    "setup_s": "s",
    "sessions_per_s": "sessions/s",
    "peak_rss_mb": "MB",
    "mean_continuity": "ratio",
    "cloud_bandwidth_mbps": "Mbit/s",
    "response_latency_ms": "ms",
    "satisfied_ratio": "ratio",
    "cloud_served_ratio": "ratio",
    "join_latency_p50_ms": "ms",
    "join_latency_p99_ms": "ms",
}
SIMULATED = ("mean_continuity", "cloud_bandwidth_mbps",
             "response_latency_ms", "satisfied_ratio", "cloud_served_ratio",
             "join_latency_p50_ms", "join_latency_p99_ms")

#: Per-layer metrics of a traced run: name -> unit.
PER_LAYER = {
    "run.wall_s": "s", "run.residual_s": "s", "trace.overhead": "ratio",
    "sweep.arrivals_s": "s", "sweep.arrivals": "count",
    "sweep.departures_s": "s", "sweep.departures": "count",
    "sweep.faults_s": "s", "sweep.scenario_s": "s",
    "sweep.scenario_plans": "count",
    "lifecycle.join_s": "s", "lifecycle.joins": "count",
    "lifecycle.migrate_s": "s", "lifecycle.migrations": "count",
    "selection.s": "s", "selection.calls": "count",
    "selection.probed_per_call": "count", "selection.fog_ratio": "ratio",
    "scoring.s": "s", "scoring.sessions": "count",
    "sweep.plans_s": "s", "sweep.games_s": "s",
    "sweep.server_assignment_s": "s",
    "reputation.refresh_s": "s", "accounting.credit_s": "s",
    "accounting.summarize_s": "s", "sweep.provisioning_s": "s",
    "provisioning.redeploys": "count",
    "faults.apply_s": "s", "faults.displaced": "count",
    "faults.retries": "count", "faults.recovered_ratio": "ratio",
    "persist.save_s": "s", "persist.saves": "count",
    "persist.written_mb": "MB", "persist.resume_s": "s",
    "shard.build_partitions_s": "s", "shard.merge_s": "s",
    "shard.partition_wall_max_s": "s", "shard.partition_wall_mean_s": "s",
    "sweep.day_residual_s": "s",
}


class RepFailed(RuntimeError):
    """A repetition crashed, timed out or wrote no result."""


def _kill_group(process: subprocess.Popen) -> None:
    """Kill a failed repetition and any worker it left; wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.communicate()


def run_rep(spec: dict, mode: str, workdir: Path, spans: Path | None,
            shards: int | None = None, probe: bool = False) -> dict:
    """Run one repetition in a fresh process and return its result.

    The repetition gets its own process group, so a timeout kills its
    worker processes too; it is always waited for.
    """
    rep_dir = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=workdir))
    rep_spec = dict(spec, mode=mode, setups=SETUPS_PER_REP, probe=probe,
                    workdir=str(rep_dir),
                    spans=str(spans) if spans else None)
    if shards is not None:
        rep_spec["shards"] = shards
    spec_path = rep_dir / "spec.json"
    out_path = rep_dir / "out.json"
    spec_path.write_text(json.dumps(rep_spec))
    process = subprocess.Popen(
        [sys.executable, str(HERE / "rep.py"), str(spec_path),
         str(out_path)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        output, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(process)
        raise RepFailed(f"{mode} repetition timed out after "
                        f"{REP_TIMEOUT_S} s") from None
    if process.returncode != 0 or not out_path.exists():
        _kill_group(process)
        tail = "\n".join(output.strip().splitlines()[-15:])
        raise RepFailed(f"{mode} repetition exited "
                        f"{process.returncode}:\n{tail}")
    rep = json.loads(out_path.read_text())
    rep["join_samples"] = np.load(rep_dir / "joins.npy")
    shutil.rmtree(rep_dir, ignore_errors=True)
    return rep


def pooled_simulated(groups: list[list[dict]]) -> dict:
    """QoE figures over every sub-run's population and measured days.

    Sub-runs measure equally many days, so the mean of their per-day
    means is the mean over all measured days; join-latency percentiles
    are taken over the pooled samples.
    """
    firsts = [group[0] for group in groups]
    sims = [rep["simulated"] for rep in firsts]
    samples = np.concatenate([rep["join_samples"] for rep in firsts])
    values = {name: fmean(sim[name] for sim in sims)
              for name in ("mean_continuity", "cloud_bandwidth_mbps",
                           "response_latency_ms", "satisfied_ratio")}
    values["cloud_served_ratio"] = 1.0 - (
        sum(sim["supernode_sessions"] for sim in sims)
        / sum(sim["online_sessions"] for sim in sims))
    values["join_latency_p50_ms"], values["join_latency_p99_ms"] = \
        np.percentile(samples, [50, 99]).tolist()
    return values


def host_times(groups: list[list[dict]], prefix: str = "") -> dict:
    """Set-up time and throughput from the repetitions' ``prefix`` times.

    ``setup_s`` is the median set-up; ``sessions_per_s`` divides every
    sub-run's sessions by the sum of the sub-runs' median run times, so
    each population weighs in once.
    """
    reps = [rep for group in groups for rep in group]
    return {
        "setup_s": median([t for rep in reps
                           for t in rep[prefix + "setups_s"]]),
        "sessions_per_s": (
            sum(group[0]["accounting"]["sessions_attempted"]
                for group in groups)
            / sum(median([rep[prefix + "run_s"] for rep in group])
                  for group in groups)),
    }


def end_to_end_metrics(groups: list[list[dict]]) -> dict:
    """Nominal host times, median peak RSS, pooled simulated figures."""
    values = host_times(groups, "nominal_")
    values["peak_rss_mb"] = median([rep["peak_rss_mb"]
                                    for group in groups for rep in group])
    values.update(pooled_simulated(groups))
    return values


def per_layer_values(traced: list[dict], untraced: list[dict]) -> dict:
    """Medians of the traced repetitions' per-layer values."""
    names = [name for name in PER_LAYER if name != "trace.overhead"]
    values = {name: median([rep["per_layer"][name] for rep in traced])
              for name in names}
    values["trace.overhead"] = (
        median([rep["run_s"] for rep in traced])
        / median([rep["run_s"] for rep in untraced]) - 1.0)
    return values


def schedule(subruns: int, trace: bool):
    """Repetitions in run order: ``(sub-run, mode)``, endless.

    Timed: every sub-run once, then sub-run 0 again (the repeat check),
    then round robin.  Traced: untraced/traced pairs of sub-run 0 — the
    untraced twin runs the traced shape, so the difference is tracing
    overhead.
    """
    if trace:
        return itertools.cycle([(0, "timed"), (0, "traced")])
    return itertools.chain(((k, "timed") for k in range(subruns)),
                           itertools.cycle((k, "timed")
                                           for k in range(subruns)))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: dict | None = None, subruns: int = SUBRUNS,
                 out_dir: Path = OUT_ROOT) -> dict:
    """Run one workload's repetitions for ``seconds``; aggregate, check.

    Sub-run ``k`` simulates population seed ``seed * subruns + k``.  A
    run always completes its minimum — every sub-run plus one repeat
    when timed, one untraced/traced pair when traced — then continues
    while time remains.
    """
    specs = [workloads.build_spec(name, seed * subruns + k, size)
             for k in range(subruns)]
    workload = workloads.WORKLOADS[name]
    minimum = 2 if trace else subruns + 1
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    spans = out_dir / f"{name}-seed{seed}.spans.jsonl"
    groups: list[list[dict]] = [[] for _ in range(subruns)]
    traced: list[dict] = []
    errors: list[str] = []
    done = 0
    start = time.perf_counter()
    try:
        for k, mode in schedule(subruns, trace):
            if errors or (done >= minimum
                          and time.perf_counter() - start >= seconds):
                break
            try:
                if mode == "traced":
                    traced.append(run_rep(specs[k], mode, workdir, spans,
                                          shards=1))
                else:
                    groups[k].append(run_rep(
                        specs[k], mode, workdir, None,
                        shards=1 if trace else None, probe=not trace))
            except RepFailed as exc:
                errors.append(str(exc))
            done += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    groups = [group for group in groups if group]
    timed = [rep for group in groups for rep in group]
    reps = timed + traced
    report = {"workload": name, "seed": seed, "trace": trace,
              "why": workload.why, "errors": errors,
              "repetitions": len(reps)}
    if errors:
        attempted = max(1, sum(rep["accounting"]["sessions_attempted"]
                               for rep in reps))
        report.update(correct=False, attempted=attempted, failed=attempted,
                      checks={"all_repetitions_ran": False}, metrics={})
        return report
    checks = {f"seed{rep['seed']}.{rep['mode']}[{i}].{key}": ok
              for i, rep in enumerate(reps)
              for key, ok in rep["checks"].items()}
    same_seed = [groups[0] + traced] + groups[1:]
    checks["repeats_identical"] = all(
        rep["digest"] == group[0]["digest"]
        and rep["simulated"] == group[0]["simulated"]
        and rep["accounting"] == group[0]["accounting"]
        for group in same_seed for rep in group[1:])
    attempted = sum(rep["accounting"]["sessions_attempted"] for rep in reps)
    failed = sum(rep["accounting"]["sessions_failed"] for rep in reps)
    for rep in reps:
        if not all(rep["checks"].values()):
            # Every session of a repetition with a failed check counts
            # as failed (its own failures are already in the sum).
            failed += (rep["accounting"]["sessions_attempted"]
                       - rep["accounting"]["sessions_failed"])
    if not checks["repeats_identical"]:
        failed = attempted
    report.update(correct=all(checks.values()), attempted=attempted,
                  failed=failed, checks=checks,
                  environment=reps[0]["environment"],
                  accounting={rep["seed"]: rep["accounting"]
                              for rep in reps},
                  join_latency_samples=sum(
                      len(group[0]["join_samples"]) for group in groups),
                  runs_s={group[0]["seed"]: [rep["run_s"] for rep in group]
                          for group in groups})
    if trace:
        report["metrics"] = per_layer_values(traced, timed)
        # The span file holds the last traced repetition's spans.
        report["layers"] = traced[-1]["layers"]
        report["prediction_mismatches"] = sorted({
            problem for rep in traced
            for problem in rep["prediction_mismatches"]})
        report["traced_runs_s"] = [rep["run_s"] for rep in traced]
    else:
        report["metrics"] = end_to_end_metrics(groups)
        report["host_seconds"] = host_times(groups)
        report["nominal_runs_s"] = {
            group[0]["seed"]: [rep["nominal_run_s"] for rep in group]
            for group in groups}
    return report


def print_report(report: dict, units: dict) -> None:
    """Human-readable lines ahead of the final JSON line."""
    print(f"# workload {report['workload']} seed {report['seed']} "
          f"trace {int(report['trace'])}: {report['why']}")
    for error in report["errors"]:
        print(f"# ERROR {error}")
    if "environment" in report:
        print("# environment " + json.dumps(report["environment"]))
        share = (report["failed"] / report["attempted"]
                 if report["attempted"] else 0.0)
        print(f"# sessions attempted {report['attempted']} failed "
              f"{report['failed']} (share {share:.4f}) over "
              f"{report['repetitions']} repetitions")
        for seed, accounting in report["accounting"].items():
            print(f"#   population seed {seed}: " + json.dumps(accounting))
        print(f"# join latency samples pooled: "
              f"{report['join_latency_samples']}")
    for name, ok in report["checks"].items():
        if not ok:
            print(f"# CHECK FAILED {name}")
    for name, value in report["metrics"].items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for name, value in report.get("host_seconds", {}).items():
        print(f"# in raw host seconds: {name} {value:.6g} "
              f"{units[name]}")
    layers = report.get("layers")
    if layers:
        print(f"# layers (traced wall {layers['wall_s']:.3f} s = self "
              f"{layers['self_total_s']:.3f} s + residual "
              f"{layers['residual_s']:.3f} s)")
        for row in layers["rows"]:
            print(f"#   {row['name']:26s} calls {row['calls']:8d} "
                  f"total {row['total_s']:9.4f} s self "
                  f"{row['self_s']:9.4f} s")
        for problem in report["prediction_mismatches"]:
            print(f"# PREDICTION MISMATCH {problem}")


def result_line(report: dict, units: dict) -> str:
    return json.dumps({
        "correct": report["correct"],
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in report["metrics"].items()},
    })


def self_test() -> int:
    """All three workloads at a tiny size, untraced and traced."""
    ok = True
    out_dir = OUT_ROOT / "self-test"
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            report = run_workload(name, seed=1, seconds=0, trace=trace,
                                  size=workloads.SELF_TEST_SIZE,
                                  subruns=2, out_dir=out_dir)
            units = PER_LAYER if trace else END_TO_END
            passed = report["correct"] and not report.get(
                "prediction_mismatches") and set(
                report["metrics"]) == set(units)
            ok = ok and passed
            print(f"self-test {name} trace={int(trace)}: "
                  f"{'ok' if passed else 'FAILED'}")
            if not passed:
                print_report(report, units)
    return 0 if ok else 1


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seeds are non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload at a tiny size and check")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_ROOT / f"{tag}.json").write_text(json.dumps(report, indent=1))
    print_report(report, units)
    print(result_line(report, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
