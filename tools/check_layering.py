#!/usr/bin/env python
"""Layering lint: forbid upward imports across the core pipeline.

The sweep pipeline is layered (DESIGN.md §10); each module may import
only modules at its own rank or below::

    100  repro.experiments.*
    100  repro.scenarios.compile    (lowers scenarios onto configs)
    100  repro.scenarios.run        (scenario CLI/runner)
     90  repro.core.system          (façade)
     90  repro.persist              (checkpoint/resume driver)
     80  repro.core.sweep           (orchestrator)
     70  repro.faults.handlers      (fault stage)
     60  repro.core.scoring
     50  repro.core.lifecycle
     40  repro.core.accounting
     30  repro.core.state
     10  repro.core.*               (leaf modules: config, entities, …)
     10  repro.scenarios.*          (schema/library leaves)
      0  everything else            (foundation: network, sim, obs, …)

An import whose target ranks *above* the importer is an upward import —
e.g. ``core.lifecycle`` importing ``core.sweep``, or a foundation
module importing anything in ``repro.core``.  Package ``__init__``
aggregators are exempt (they re-export the public API by design), with
one exception: ``repro.faults/__init__`` is pinned to the foundation —
importing ``.handlers`` from it would cycle through
``core.state``'s ``build_injector`` import.

Run from the repository root::

    python tools/check_layering.py

Exits non-zero and prints one line per violation.  No third-party
dependencies (the environment cannot install import-linter).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Longest-prefix rank table of the layered architecture.
RANKS = {
    "repro.__main__": 100,  # CLI entry point drives experiments
    "repro.experiments": 100,
    "repro.scenarios.compile": 100,  # builds variant configs
    "repro.scenarios.run": 100,      # drives experiments.runner
    "repro.core.system": 90,
    # repro.scenarios itself (schema/library) stays foundation:
    # it may import only workload/streaming/faults leaves, so the
    # sweep's stage_scenario hook point never pulls experiments in.
    "repro.scenarios": 10,
    "repro.core.shard": 90,  # drives core.sweep + persist per partition
    "repro.persist": 90,   # drives core.sweep for resumed schedules
    "repro.core.sweep": 80,
    "repro.faults.handlers": 70,
    "repro.core.scoring": 60,
    "repro.core.lifecycle": 50,
    "repro.core.accounting": 40,
    "repro.core.state": 30,
    "repro.core": 10,
    "repro": 0,
}

#: ``__init__`` aggregators re-export freely — except these, which are
#: load-bearing for import-cycle safety and stay rank-checked.
CHECKED_INITS = {"repro.faults"}


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def rank(module: str) -> int:
    probe = module
    while probe:
        if probe in RANKS:
            return RANKS[probe]
        probe = probe.rpartition(".")[0]
    return 0


def resolve_relative(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute base module of a (possibly relative) ImportFrom."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    # Level 1 is the containing package: drop the module's own name
    # unless the importer *is* a package (__init__).
    drop = node.level - 1 if is_package else node.level
    base = parts[: len(parts) - drop] if drop else parts
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def imported_modules(path: Path, module: str,
                     known: set[str]) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    is_package = path.name == "__init__.py"
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names
                       if alias.name.split(".")[0] == "repro")
        elif isinstance(node, ast.ImportFrom):
            base = resolve_relative(module, is_package, node)
            if base.split(".")[0] != "repro":
                continue
            out.append(base)
            # ``from pkg import sub`` may bind a submodule: count it
            # only when a module by that name actually exists.
            for alias in node.names:
                candidate = f"{base}.{alias.name}"
                if candidate in known:
                    out.append(candidate)
    return out


def check() -> list[str]:
    files = sorted(SRC.rglob("*.py"))
    known = {module_name(p) for p in files}
    known |= {module_name(p) + "." + p.stem
              for p in files if p.name != "__init__.py"}
    violations = []
    for path in files:
        module = module_name(path)
        if path.name == "__init__.py" and module not in CHECKED_INITS:
            continue
        importer_rank = rank(module)
        for imported in imported_modules(path, module, known):
            if rank(imported) > importer_rank:
                violations.append(
                    f"{module} (rank {importer_rank}) imports "
                    f"{imported} (rank {rank(imported)}): upward import")
    return sorted(set(violations))


def main() -> int:
    violations = check()
    for line in violations:
        print(line)
    if violations:
        print(f"{len(violations)} layering violation(s)", file=sys.stderr)
        return 1
    print("layering ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
