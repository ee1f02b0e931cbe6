"""Execute compiled scenarios and the ``python -m repro scenario`` CLI.

``run_scenario`` drives the full pipeline — resolve, compile, run
(optionally sharded), evaluate the SLO policy over the per-day time
series, summarise the §4.4 economics — and returns the JSON-ready
report.  On an unsharded run the per-day time series is forced on (the
chaos-run pattern) when observability isn't already enabled, so the SLO
verdict always has data; ``obs_dir`` additionally captures the full
telemetry bundle via :func:`repro.obs.report.write_run_dir` for
``python -m repro report``.  A sharded run reports no SLO verdict.

CLI::

    python -m repro scenario list
    python -m repro scenario validate <name-or-path>
    python -m repro scenario run <name-or-path> [--days N] [--seed N]
        [--shards N] [--obs-dir DIR] [--slo PATH]

Experiments-rank module: imports ``repro.experiments`` via the
compiler and the runner entry points.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .. import obs
from ..economics.incentives import IncentiveModel
from ..economics.provider import ProviderModel
from ..experiments.runner import run_config, run_sharded_config
from ..obs.slo import SloPolicy, default_policy, evaluate, load_policy
from .compile import CompiledScenario, compile_scenario
from .library import BUILTIN_SCENARIOS, resolve
from .schema import Scenario

__all__ = ["run_scenario", "scenario_main"]


def _economics_model(scenario: Scenario) -> ProviderModel:
    """The §4.4 provider model with the scenario's economics knobs."""
    eco = scenario.economics
    incentive_kwargs = {}
    if eco.reward_per_gb is not None:
        incentive_kwargs["reward_per_gb"] = eco.reward_per_gb
    if eco.electricity_usd_per_kwh is not None:
        incentive_kwargs["electricity_usd_per_kwh"] = \
            eco.electricity_usd_per_kwh
    provider_kwargs = {"incentives": IncentiveModel(**incentive_kwargs)}
    if eco.revenue_per_mbps_hour is not None:
        provider_kwargs["revenue_per_mbps_hour"] = \
            eco.revenue_per_mbps_hour
    return ProviderModel(**provider_kwargs)


def _economics_summary(scenario: Scenario, compiled: CompiledScenario,
                       result) -> dict:
    """Eq. 2 bandwidth reduction and the hourly revenue/reward split."""
    provider = _economics_model(scenario)
    supported = sum(day.supernode_players for day in result.days) \
        / len(result.days)
    supernodes = compiled.config.num_supernodes
    reduction = provider.bandwidth_reduction_mbps(
        round(supported), supernodes)
    # 1 Mbit/s sustained for an hour is 0.45 GB of traffic.
    served_gb_per_hour = supported * provider.stream_rate_mbps * 0.45
    revenue = reduction * provider.revenue_per_mbps_hour
    rewards = served_gb_per_hour * provider.incentives.reward_per_gb
    return {
        "mean_supernode_players": supported,
        "num_supernodes": supernodes,
        "bandwidth_reduction_mbps": reduction,
        "revenue_per_hour_usd": revenue,
        "supernode_rewards_per_hour_usd": rewards,
        "net_saving_per_hour_usd": revenue - rewards,
    }


def run_scenario(scenario: Scenario,
                 base_dir: str | Path | None = None,
                 days: int | None = None,
                 seed: int | None = None,
                 shards: int = 1,
                 policy: SloPolicy | None = None,
                 obs_dir: str | Path | None = None) -> dict:
    """Run ``scenario`` end to end and return its JSON-ready report.

    ``days``/``seed`` override the scenario document; ``shards`` > 1
    routes through the sharded runner — identical merged result for
    every shard count > 1, though partitioned dynamics (and per-region
    flash-crowd injection) differ from the single-process run;
    ``policy`` defaults to the calibrated built-in; ``obs_dir``
    captures the telemetry bundle.

    A sharded run's per-day time series and events stay in its worker
    processes (ROADMAP item 1), so it reports ``"slo": None`` instead
    of a verdict over an empty series, and refuses ``policy`` and
    ``obs_dir``, which both need that series.
    """
    if shards > 1 and (obs_dir is not None or policy is not None):
        raise ValueError(
            "--obs-dir and --slo need --shards 1: a sharded run's time "
            "series and events stay in its workers, so there is nothing "
            "to judge or bundle (ROADMAP item 1)")
    compiled = compile_scenario(scenario, base_dir=base_dir, seed=seed)
    run_days = days if days is not None else compiled.days
    if shards > 1:
        result = run_sharded_config(compiled.config, run_days,
                                    shards=shards, label=compiled.label)
        return _build_report(scenario, compiled, result, run_days, seed,
                             shards, None, None)
    policy = policy or default_policy()
    forced = not obs.enabled()
    if forced:
        obs.enable()
    try:
        result = run_config(compiled.config, run_days,
                            label=compiled.label)
        slo = evaluate(policy, obs.get_timeseries())
        report = _build_report(scenario, compiled, result, run_days,
                               seed, shards, slo, policy)
        if obs_dir is not None:
            from ..obs.report import write_run_dir
            written = write_run_dir(
                obs_dir, policy=policy,
                meta={"command": "scenario",
                      "scenario": scenario.name,
                      "variant": scenario.infrastructure.variant,
                      "seed": report["seed"], "days": run_days})
            report["obs_dir"] = {"path": str(obs_dir),
                                 "files": [p.name for p in written]}
    finally:
        if forced:
            obs.disable()
    return report


def _build_report(scenario: Scenario, compiled: CompiledScenario,
                  result, run_days: int, seed: int | None, shards: int,
                  slo, policy: SloPolicy | None) -> dict:
    infra = scenario.infrastructure
    report = {
        "scenario": scenario.name,
        "description": scenario.description,
        "variant": infra.variant,
        "testbed": infra.testbed,
        "players": compiled.config.num_players,
        "supernodes": compiled.config.num_supernodes,
        "seed": seed if seed is not None else scenario.seed,
        "days": run_days,
        "measured_days": len(result.days),
        "shards": shards,
        "faults": dataclasses.asdict(result.faults),
        "slo": None if slo is None else {
            "policy": policy.name, "ok": slo.ok,
            "violating_days": slo.violating_days()},
    }
    if result.days:
        report["results"] = {
            "sessions": len(result.sessions),
            "mean_online_players": sum(
                day.online_players for day in result.days)
                / len(result.days),
            "supernode_coverage": result.supernode_coverage,
            "mean_response_latency_ms": result.mean_response_latency_ms,
            "mean_continuity": result.mean_continuity,
            "satisfied_ratio": result.mean_satisfied_ratio,
            "cloud_bandwidth_mbps": result.mean_cloud_bandwidth_mbps,
        }
        report["economics"] = _economics_summary(scenario, compiled,
                                                 result)
    else:
        report["results"] = None
        report["economics"] = None
    return report


# -- CLI ---------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro scenario",
        description="List, validate or run declarative scenarios.")
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("list", help="show the built-in scenarios")
    validate = commands.add_parser(
        "validate", help="check a scenario document and its compilation")
    validate.add_argument("scenario",
                          help="built-in name or .json/.toml path")
    run = commands.add_parser(
        "run", help="run a scenario and print its JSON report")
    run.add_argument("scenario", help="built-in name or .json/.toml path")
    run.add_argument("--days", type=int, default=None,
                     help="override the scenario's schedule length")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's seed")
    run.add_argument("--shards", type=int, default=1,
                     help="worker processes for the sharded runner "
                          "(default 1: in-process)")
    run.add_argument("--obs-dir", metavar="DIR", default=None,
                     help="also capture the full telemetry bundle into "
                          "DIR (render with 'python -m repro report'); "
                          "needs --shards 1")
    run.add_argument("--slo", metavar="PATH", default=None,
                     help="SLO policy JSON (default: the calibrated "
                          "built-in policy); needs --shards 1")
    return parser


def _list_command() -> int:
    width = max(len(name) for name in BUILTIN_SCENARIOS)
    for name, scenario in BUILTIN_SCENARIOS.items():
        print(f"{name:<{width}}  {scenario.description}")
    return 0


def _validate_command(args) -> int:
    try:
        scenario, base_dir = resolve(args.scenario)
        compiled = compile_scenario(scenario, base_dir=base_dir)
    except ValueError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    print(f"ok: {scenario.name} compiles to {compiled.config.num_players} "
          f"players / {compiled.config.num_supernodes} supernodes on "
          f"{scenario.infrastructure.testbed} "
          f"({scenario.infrastructure.variant}), {compiled.days} days")
    return 0


def _run_command(args) -> int:
    try:
        scenario, base_dir = resolve(args.scenario)
        policy = load_policy(args.slo) if args.slo else None
    except (OSError, ValueError, TypeError) as exc:
        print(f"scenario run failed: {exc}", file=sys.stderr)
        return 1
    try:
        report = run_scenario(scenario, base_dir=base_dir,
                              days=args.days, seed=args.seed,
                              shards=args.shards, policy=policy,
                              obs_dir=args.obs_dir)
    except (OSError, ValueError) as exc:
        print(f"scenario run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def scenario_main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _list_command()
    if args.command == "validate":
        return _validate_command(args)
    return _run_command(args)
