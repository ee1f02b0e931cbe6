#!/usr/bin/env python
"""Reachability trace: which ``src/`` functions do the repo's runs call?

Runs every entry point of the repository (the CLI commands and every
figure at its smallest flags, the smoke scripts, the perf benches at
their tiny sizes, ``perfbench --self-test``, the examples and the
``pytest benchmarks`` figure and ablation benches) under a
``sys.setprofile`` hook, then prints, per ``repro`` module, the
functions no run called.  It also runs the paths only some inputs
reach: ``--log-level``, an ``--slo`` policy file and its report, a
checkpoint resume with observability on, a built-in scenario through
``checkpoint_smoke.py --scenario``, and a fault plan whose fog-cloud
partition closes mid-day with sessions queued behind it.  A function
the output lists is therefore one no input of the repository reaches.

The hook lives in a generated ``sitecustomize`` put first on the
children's ``PYTHONPATH``, so every interpreter the runs start is
traced, and so are forked shard and sweep workers
(``threading.setprofile`` covers threads).  Each PID appends the code
objects it calls first to its own ``calls-<pid>.txt``.  A function is
reached when its code object was called; a class body that ran at
import does not count, and neither does a module body.

Run from the repository root (a full pass takes several minutes on
2 cores; stdlib only).  No CI job runs it: it is a manual audit, and its
count is recorded in ROADMAP.md::

    python tools/reachability.py [--out DIR]

Caveats:

* The benches run with ``--benchmark-disable`` (each benchmarked
  function runs once), not ``--benchmark-only``: pytest-benchmark
  pauses ``sys.setprofile`` around its timed rounds, so a timed run
  would record nothing the benches reach.
* A run's non-zero exit is printed and the pass goes on.  ``chaos-run``
  exits 1 by design: the example scenario violates its SLO policy.
* Under the profiler, ``perfbench --self-test`` fails its
  ``cloud-only trace=1`` timing prediction, because tracing inflates
  the Python-heavy arrivals.  This tool collects calls only; ignore
  the verdicts of that (and any other timing) check.
* The runs write checkpoints, reports and bench snapshots into a
  scratch directory, and the figure benches write their tables under
  ``benchmarks/results/``.  Run it on a checkout where ``git status``
  is clean afterwards.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SITECUSTOMIZE = '''\
import os, sys, threading
_out_dir, _src = os.environ["REACH_OUT"], os.environ["REACH_SRC"]
_seen, _out = set(), [None]
os.register_at_fork(after_in_child=lambda: _out.__setitem__(0, None))
def _profile(frame, event, arg):
    if event != "call" or frame.f_code in _seen:
        return
    code = frame.f_code
    _seen.add(code)
    if code.co_filename.startswith(_src):
        if _out[0] is None:
            _out[0] = open(os.path.join(_out_dir, "calls-%d.txt"
                                        % os.getpid()), "a", buffering=1)
        _out[0].write("%s\\t%d\\n" % (os.path.realpath(code.co_filename),
                                     code.co_firstlineno))
sys.setprofile(_profile)
threading.setprofile(_profile)
'''


def commands(work: Path) -> list[list[str]]:
    """Every traced run, as argv lists for ``python``."""
    sys.path.insert(0, str(SRC))
    from repro.__main__ import FIGURES
    from repro.obs.slo import default_policy

    ck, obs_dir, scen_dir = work / "ck", work / "obs", work / "scen"
    policy = work / "slo.json"
    policy.write_text(json.dumps(default_policy().as_dict()))
    # A fog-cloud partition over subcycles 10-17 with most supernodes
    # crashing inside it: displaced sessions queue, and when the window
    # closes at 18 the queue drains (sessions still playing degrade to
    # the cloud, the rest are shed).
    partition = work / "partition.json"
    partition.write_text(json.dumps({"events": [
        {"kind": "partition", "day": 0, "subcycle": 10,
         "duration_subcycles": 8},
        {"kind": "crash", "day": 0, "subcycle": 11, "count": 11}]}))
    runs = [["-m", "repro", "run", "--days", "3", "--players", "120",
             "--supernodes", "8", "--faults", "examples/chaos_scenario.json",
             "--checkpoint-dir", str(ck), "--obs-dir", str(obs_dir)],
            ["-m", "repro", "run", "--days", "3", "--checkpoint-dir",
             str(work / "ck2"), "--resume-from",
             str(ck / "checkpoint-day0000.json")],
            ["-m", "repro", "run", "--days", "3", "--checkpoint-dir",
             str(work / "ck3"), "--resume-from",
             str(ck / "checkpoint-day0000.json"),
             "--obs-dir", str(work / "obs-resumed")],
            ["-m", "repro", "report", str(obs_dir)],
            ["-m", "repro", "run", "--days", "1", "--log-level", "debug"],
            ["-m", "repro", "run", "--days", "1", "--slo", str(policy),
             "--obs-dir", str(work / "obs-slo")],
            ["-m", "repro", "report", str(work / "obs-slo")],
            ["-m", "repro", "run", "--days", "1", "--players", "200",
             "--supernodes", "12", "--faults", str(partition)],
            ["-m", "repro", "list"],
            ["-m", "repro", "fig16a", "--chart"],
            ["-m", "repro", "scenario", "list"],
            ["-m", "repro", "scenario", "validate", "examples/esports_final.toml"],
            ["-m", "repro", "scenario", "run", "regional-isp-outage",
             "--obs-dir", str(scen_dir)],
            ["-m", "repro", "report", str(scen_dir)],
            ["-m", "repro", "scenario", "run", "esports-final", "--shards", "2"]]
    for name, (_, _, players, jobs, faults) in FIGURES.items():
        runs.append(["-m", "repro", name]
                    + (["--players", "60"] if players else [])
                    + (["--jobs", "2"] if jobs else [])
                    + (["--faults", "examples/chaos_scenario.json"]
                       if faults else []))
    runs += [["benchmarks/" + smoke] for smoke in (
        "chaos_smoke.py", "checkpoint_smoke.py", "resilience_smoke.py",
        "scenario_smoke.py", "obs_smoke.py")]
    runs += [["benchmarks/checkpoint_smoke.py", "--chaos"],
             ["benchmarks/checkpoint_smoke.py", "--scenario",
              "esports-final"],
             ["benchmarks/scale_smoke.py", "--scale", "0.05"],
             ["benchmarks/bench_perf_scoring.py", "--tiny", "--output",
              str(work / "perf.json")],
             ["benchmarks/bench_lifecycle.py", "--tiny", "--output",
              str(work / "lifecycle.json")]]
    runs += [["benchmarks/bench_full_scale.py", "--scale", "0.01",
              "--shards", shards, "--output", str(work / f"full{shards}.json")]
             for shards in ("1", "2")]
    runs.append(["perfbench/run.py", "--self-test"])
    runs += [[str(path.relative_to(ROOT))]
             for path in sorted((ROOT / "examples").glob("*.py"))]
    runs.append(["-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
                 "-p", "no:cacheprovider"])
    return runs


def defined_functions() -> dict[str, dict[tuple[str, int], str]]:
    """module -> {(file, first line): qualified name} of every ``def``.

    A code object's first line is its first decorator's, if any.
    """
    table: dict[str, dict[tuple[str, int], str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        found = table.setdefault(module, {})

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([d.lineno for d in child.decorator_list]
                                + [child.lineno])
                    found[(str(path), first)] = prefix + child.name
                    walk(child, prefix + child.name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), "")
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="keep the call files in this directory")
    args = parser.parse_args(argv)
    out = Path(args.out or tempfile.mkdtemp(prefix="reach-")).resolve()
    for sub in ("site", "work"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    (out / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, REACH_OUT=str(out), REACH_SRC=str(SRC),
               PYTHONPATH=os.pathsep.join([str(out / "site"), str(SRC)]))
    for argv_ in commands(out / "work"):
        code = subprocess.run([sys.executable, *argv_], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode
        print(f"[exit {code}] {' '.join(argv_)}", file=sys.stderr)

    reached = set()
    for calls in out.glob("calls-*.txt"):
        for line in calls.read_text().splitlines():
            filename, first = line.split("\t")
            reached.add((filename, int(first)))
    total = called = 0
    for module, functions in sorted(defined_functions().items()):
        total += len(functions)
        called += sum(key in reached for key in functions)
        unreached = [name for key, name in sorted(functions.items(),
                                                  key=lambda kv: kv[0][1])
                     if key not in reached]
        if not unreached:
            continue
        flag = ("  [no function called]"
                if len(unreached) == len(functions) else "")
        print(f"{module}: {len(unreached)}/{len(functions)} never called{flag}")
        for name in unreached:
            print(f"    {name}")
    print(f"{called} of {total} src functions called; call files in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
