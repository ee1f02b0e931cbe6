"""One repetition of a benchmark workload, run in a fresh process.

Usage::

    python3 perfbench/rep.py SPEC.json OUT.json

``SPEC.json`` is a :func:`workloads.build_spec` document plus ``mode``
(``timed`` or ``traced``), ``setups`` (how many times to time the
set-up), ``probe`` (sample host speed, :mod:`hostspeed`), ``workdir``
(scratch space for checkpoints and the join ledger) and, when traced,
``spans`` (where to write the span JSONL).  The repetition writes its
measurements, simulated results and output checks to ``OUT.json``.  Peak
RSS is this process's plus its worker processes'.  With ``probe`` the
set-up and run times are also given in nominal seconds.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro import CloudFogSystem  # noqa: E402
from repro.core.shard import build_partitions, resume_sharded  # noqa: E402
from repro.core.state import cloud_one_way_ms  # noqa: E402
from repro.experiments import (peersim, run_sharded_config,  # noqa: E402
                               variant_config)
from repro.obs.trace import Tracer  # noqa: E402
from repro.persist import capture_result, payload_digest  # noqa: E402
from repro.scenarios import Scenario  # noqa: E402
from repro.scenarios.compile import compile_scenario  # noqa: E402
from repro.sim.cycles import Schedule  # noqa: E402

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from ledger import (JoinLedger, WithLedger, failed_before,  # noqa: E402
                    failed_total, read_ledger)


def result_digest(result) -> str:
    """Digest of everything a run simulated.

    ``assignment_wall_times_s`` is left out: it holds host seconds the
    server-assignment step measured, which differ between any two runs.
    """
    payload = capture_result(result)
    payload.pop("assignment_wall_times_s")
    return payload_digest(payload)


def simulated_metrics(result) -> dict:
    """The QoE figures of a run: model outputs, exact at a fixed seed."""
    return {
        "mean_continuity": result.mean_continuity,
        "cloud_bandwidth_mbps": result.mean_cloud_bandwidth_mbps,
        "response_latency_ms": result.mean_response_latency_ms,
        "satisfied_ratio": result.mean_satisfied_ratio,
        "supernode_sessions": sum(day.supernode_players
                                  for day in result.days),
        "online_sessions": sum(day.online_players for day in result.days),
    }


def timed_setups(build, count: int) -> tuple[list[tuple], object]:
    """Time ``build()`` ``count`` times; return the (start, end)
    intervals and the last value."""
    intervals, built = [], None
    for _ in range(count):
        built = None
        start = time.perf_counter()
        built = build()
        intervals.append((start, time.perf_counter()))
    return intervals, built


def run_single(spec: dict, workdir: Path, instrument, probe) -> dict:
    """paper-fog / cloud-only: one ``CloudFogSystem`` in this process.

    ``probe`` (or None) samples host speed through set-ups and run.
    """
    config = variant_config(
        spec["variant"], peersim(spec["players"] / 100_000), spec["seed"],
        schedule=Schedule(days=spec["days"], warmup_days=spec["warmup"]))
    with probe or nullcontext():
        setups, system = timed_setups(lambda: CloudFogSystem(config),
                                      spec["setups"])
        ledger_dir = workdir / "ledger"
        ledger_dir.mkdir()
        WithLedger(JoinLedger(str(ledger_dir)))(system.state)
        with instrument or nullcontext():
            start = time.perf_counter()
            result = system.run(days=spec["days"])
            run = [(start, time.perf_counter())]
    rows = read_ledger(ledger_dir)
    if config.mode == "cloud":
        # Direct cloud sessions never select a supernode, so they record
        # no join latency; their set-up is one round trip to the
        # datacenter — the cloud_rtt term a fog selection starts from.
        joins = [2.0 * cloud_one_way_ms(system.state, record.player)
                 for record in result.sessions]
    else:
        joins = result.join_latencies_ms
    return {"setups": setups, "run": run, "result": result,
            "joins": joins, "ledger": rows, "resume": None,
            "partition_walls": []}


def run_outage(spec: dict, workdir: Path, instrument, tracer,
               probe) -> dict:
    """outage-sharded: sharded run with daily checkpoints, then a resume.

    The checkpoint cadence puts each partition's last checkpoint on day
    ``days - resume_days - 1`` (:func:`workloads.build_spec`), so the
    resume replays the final ``resume_days`` days and must reproduce the
    uninterrupted merged result exactly.  ``probe`` (or None) samples
    host speed through the set-ups in this process, and through the runs
    in their worker processes.
    """
    compiled = compile_scenario(Scenario.from_dict(spec["scenario"]),
                                seed=spec["seed"])
    config, days = compiled.config, compiled.days
    with probe or nullcontext():
        setups, _ = timed_setups(lambda: build_partitions(config),
                                 spec["setups"])
    configure = compiled.configure
    probe_dir = workdir / "probe"
    if probe is not None:
        probe_dir.mkdir()
        configure = hostspeed.WithProbe(str(probe_dir), os.getpid(),
                                        configure)
    checkpoints = workdir / "checkpoints"
    run_ledger = workdir / "ledger"
    resume_ledger = workdir / "ledger-resume"
    run_ledger.mkdir()
    resume_ledger.mkdir()
    with instrument or nullcontext():
        start = time.perf_counter()
        merged = run_sharded_config(
            config, days, shards=spec["shards"], checkpoint_dir=checkpoints,
            checkpoint_every=spec["checkpoint_every"],
            configure=WithLedger(JoinLedger(str(run_ledger)), configure))
        full = (start, time.perf_counter())
        partition_walls = [span.duration_s for span in tracer.finished
                           if span.name == "shard.partition"] \
            if tracer is not None else []
        start = time.perf_counter()
        resumed = resume_sharded(
            config, checkpoints, shards=spec["shards"],
            checkpoint_every=spec["checkpoint_every"],
            configure=WithLedger(JoinLedger(str(resume_ledger)),
                                 configure))
        resume = (start, time.perf_counter())
    if probe is not None:
        probe.samples.extend(hostspeed.read_logs(probe_dir))
    return {"setups": setups, "run": [full, resume],
            "result": merged, "joins": merged.join_latencies_ms,
            "ledger": read_ledger(run_ledger),
            "resume": {"result": resumed,
                       "ledger": read_ledger(resume_ledger),
                       "first_day": days - spec["resume_days"]},
            "partition_walls": partition_walls}


def output_checks(spec: dict, run: dict) -> tuple[dict, dict]:
    """Check one run's outputs; return (checks, session accounting)."""
    result, rows = run["result"], run["ledger"]
    measured_rows = [row for row in rows if row["measuring"]]
    attempted_measured = sum(row["attempted"] for row in measured_rows)
    failed_all = failed_total(result.faults)
    failed_measured = failed_all - failed_before(rows, spec["warmup"])
    checks = {
        "measured_days": len(result.days) == spec["days"] - spec["warmup"],
        "ratios_in_unit_interval": all(
            0.0 <= value <= 1.0 for value in (
                result.mean_continuity, result.mean_satisfied_ratio,
                result.supernode_coverage)),
        "sessions_accounted":
            len(result.sessions) + failed_measured == attempted_measured,
        "displacements_conserved": result.faults.conserved(),
    }
    attempted = sum(row["attempted"] for row in rows)
    failed = failed_all
    resume = run["resume"]
    if resume is not None:
        resumed = resume["result"]
        checks["resume_starts_at_checkpoint"] = min(
            row["day"] for row in resume["ledger"]) == resume["first_day"]
        checks["resume_reproduces_run"] = \
            result_digest(resumed) == result_digest(result)
        checks["resume_displacements_conserved"] = \
            resumed.faults.conserved()
        attempted += sum(row["attempted"] for row in resume["ledger"])
        failed += failed_total(resumed.faults) - failed_before(
            resume["ledger"], resume["first_day"])
    accounting = {
        "sessions_attempted": attempted,
        "sessions_failed": failed,
        "measured_attempted": attempted_measured,
        "measured_recorded": len(result.sessions),
        "measured_failed": failed_measured,
        "displaced": result.faults.displaced,
        "recovered": result.faults.recovered,
        "degraded": result.faults.degraded,
        "dropped": result.faults.dropped,
        "shed": result.faults.shed,
        "joins_shed": result.faults.joins_shed,
    }
    return checks, accounting


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest finished worker (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(Path(argv[1]).read_text())
    workdir = Path(spec["workdir"])
    tracer = Tracer() if spec["mode"] == "traced" else None
    instrument = layers.Instrumentation(tracer) if tracer else None
    probe = hostspeed.Probe() if spec.get("probe") else None
    if spec["sharded"]:
        run = run_outage(spec, workdir, instrument, tracer, probe)
    else:
        run = run_single(spec, workdir, instrument, probe)
    run["run_s"] = sum(end - start for start, end in run["run"])
    checks, accounting = output_checks(spec, run)
    result = run["result"]
    out = {
        "workload": spec["workload"],
        "seed": spec["seed"],
        "mode": spec["mode"],
        "setups_s": [end - start for start, end in run["setups"]],
        "run_s": run["run_s"],
        "peak_rss_mb": peak_rss_mb(),
        "simulated": simulated_metrics(result),
        "digest": result_digest(result),
        "checks": checks,
        "accounting": accounting,
        "environment": {
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "workers": min(spec["shards"], os.cpu_count() or 1),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "repro": repro.__version__,
        },
    }
    if probe is not None:
        out["nominal_setups_s"] = [probe.nominal(*interval)
                                   for interval in run["setups"]]
        out["nominal_run_s"] = sum(probe.nominal(*interval)
                                   for interval in run["run"])
        out["probe_samples"] = len(probe.samples)
    if tracer is not None:
        table = layers.layer_table(tracer, run["run_s"], instrument.counts)
        out["layers"] = table
        checks["spans_within_wall"] = table["residual_s"] >= 0.0
        out["per_layer"] = layers.per_layer_metrics(
            table, result.faults, run["partition_walls"],
            instrument.written_bytes)
        out["prediction_mismatches"] = layers.check_predictions(
            table, workloads.WORKLOADS[spec["workload"]].predictions)
        out["spans"] = tracer.export_jsonl(spec["spans"])
    np.save(Path(argv[2]).parent / "joins.npy",
            np.asarray(run["joins"], dtype=np.float64))
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
