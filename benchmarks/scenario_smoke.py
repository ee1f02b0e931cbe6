"""Scenario smoke: validate + run every scenario document, gated.

The CI ``scenario-smoke`` job runs this script and fails unless

1. every example scenario document under ``examples/`` (``.json`` and
   ``.toml``) parses, round-trips exactly through ``to_dict`` and
   compiles to a runnable config;
2. every built-in of the scenario library runs end to end and its JSON
   report carries measured days, sessions and an SLO verdict;
3. ``python -m repro scenario validate`` refuses a handful of bad
   documents — one bad value per workload section, a malformed flash
   crowd, a crowd outside the run's days, an unknown and a wrong-typed
   ``infrastructure.overrides`` value — with exit 1 and a single
   ``invalid: <document path>: …`` line, no traceback; and
4. the whole sweep stays inside the wall budget.

Run standalone::

    PYTHONPATH=src python benchmarks/scenario_smoke.py
    PYTHONPATH=src python benchmarks/scenario_smoke.py --budget 60
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

from repro.scenarios import BUILTIN_SCENARIOS, Scenario, load_scenario
from repro.scenarios.compile import compile_scenario
from repro.scenarios.run import run_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Bad documents for phase 3: the section each one breaks, the
#: document path its error must start with.
BAD_DOCUMENTS = [
    ({"population": {"weekly_weights": [1.0, 1.0]}},
     "population.weekly_weights:"),
    ({"workload": {"duration_shares": [0.9, 0.9, 0.9]}},
     "workload.duration_shares:"),
    ({"streaming": {"quality_ceiling": 9}}, "streaming.quality_ceiling:"),
    ({"workload": {"flash_crowds": [
        {"day": 1, "subcycle": 20, "players": 5},
        {"day": 1, "subcycle": 0, "players": 5}]}},
     "workload.flash_crowds[1].subcycle:"),
    ({"schedule": {"days": 3}, "workload": {"flash_crowds": [
        {"day": 9, "subcycle": 30, "players": 5}]}},
     "workload.flash_crowds[0].day:"),
    ({"infrastructure": {"overrides": {"num_supernodez": 3}}},
     "infrastructure.overrides:"),
    ({"infrastructure": {"overrides": {"num_supernodes": "many"}}},
     "infrastructure.overrides:"),
    ({"infrastructure": {"overrides": {"num_supernodes": -1}}},
     "infrastructure.overrides.num_supernodes:"),
]


def check_examples() -> list[str]:
    """Phase 1: every example document parses, round-trips, compiles."""
    failures = []
    paths = sorted(EXAMPLES.glob("*.toml"))
    # Only scenario JSON documents (a "version"+"name" object) count:
    # examples/ also holds bare fault plans consumed via faults.ref.
    for path in sorted(EXAMPLES.glob("*.json")):
        payload = json.loads(path.read_text())
        if isinstance(payload, dict) and "name" in payload \
                and "version" in payload:
            paths.append(path)
    if not paths:
        return ["no example scenario documents found under examples/"]
    for path in paths:
        try:
            scenario = load_scenario(path)
            if Scenario.from_dict(scenario.to_dict()) != scenario:
                failures.append(f"{path.name}: to_dict round trip drifted")
            compile_scenario(scenario, base_dir=path.parent)
        except ValueError as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        print(f"example {path.name}: ok ({scenario.name})")
    return failures


def check_builtins(seed: int | None) -> list[str]:
    """Phase 2: every built-in runs end to end with a usable report."""
    failures = []
    for name, scenario in BUILTIN_SCENARIOS.items():
        t0 = time.perf_counter()
        report = run_scenario(scenario, seed=seed)
        wall = time.perf_counter() - t0
        results = report["results"]
        print(f"builtin {name}: {wall:.1f}s  measured="
              f"{report['measured_days']}  sessions="
              f"{results['sessions'] if results else 0}  slo_ok="
              f"{report['slo']['ok']}")
        if report["measured_days"] <= 0:
            failures.append(f"{name}: no measured days")
        if not results or results["sessions"] <= 0:
            failures.append(f"{name}: produced no sessions")
        try:
            json.dumps(report)
        except (TypeError, ValueError):
            failures.append(f"{name}: report is not JSON-serialisable")
    return failures


def check_bad_documents() -> list[str]:
    """Phase 3: the CLI refuses each bad document with one clean line."""
    failures = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as tmp:
        for index, (sections, path) in enumerate(BAD_DOCUMENTS):
            document = pathlib.Path(tmp) / f"bad{index}.json"
            document.write_text(json.dumps(
                {"version": 1, "name": f"bad{index}", **sections}))
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "scenario", "validate",
                 str(document)], capture_output=True, text=True, env=env)
            lines = proc.stderr.strip().splitlines()
            if proc.returncode != 1 or len(lines) != 1 \
                    or not lines[0].startswith(f"invalid: {path}"):
                failures.append(
                    f"bad document {path} exited {proc.returncode} "
                    f"with stderr {proc.stderr.strip()!r}")
                continue
            print(f"bad document {path} refused: ok")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="override every scenario's seed")
    parser.add_argument("--budget", type=float, default=120.0,
                        help="wall-time budget in seconds (default 120)")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    failures = check_examples()
    failures += check_builtins(args.seed)
    failures += check_bad_documents()
    wall = time.perf_counter() - t0
    print(f"wall: {wall:.1f}s (budget {args.budget:.0f}s)")
    if wall > args.budget:
        failures.append(
            f"scenario smoke took {wall:.1f}s (budget {args.budget:.0f}s)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("scenario smoke OK")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
