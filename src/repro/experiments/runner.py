"""Experiment runner helpers: variants, sweeps, seeds, checkpointing."""

from __future__ import annotations

from pathlib import Path

from .. import obs
from ..core.config import (
    SystemConfig,
    cdn,
    cloud_only,
    cloudfog_advanced,
    cloudfog_basic,
)
from ..core.accounting import RunResult
from ..core.shard import run_sharded
from ..core.system import CloudFogSystem
from ..persist import Checkpointer, resume_run
from .testbeds import Testbed

__all__ = ["VARIANTS", "variant_config", "build_system", "run_variant",
           "run_config", "resume_config", "run_sharded_config"]


def _checkpointer(checkpoint_dir, checkpoint_every: int
                  ) -> Checkpointer | None:
    """The day-end checkpoint hook for a run, or None without a dir."""
    if checkpoint_dir is None:
        return None
    return Checkpointer(Path(checkpoint_dir), every=checkpoint_every)

#: The system variants of the evaluation, by paper name.
VARIANTS = ("Cloud", "CDN-small", "CDN", "CloudFog/B", "CloudFog/A")


def variant_config(variant: str, testbed: Testbed, seed: int,
                   **overrides) -> SystemConfig:
    """Build the :class:`SystemConfig` for a named paper variant.

    CDN deploys half as many edge servers as CloudFog has supernodes
    (§4.1: CDN hardware is pricier, so the same budget buys half the
    sites); CDN-small mimics the paper's CDN-45/CDN-8 sparse variants at
    roughly an eighth.
    """
    kwargs = testbed.config_kwargs()
    kwargs.update(overrides)
    kwargs.setdefault("seed", seed)
    num_supernodes = kwargs.get("num_supernodes", 0)
    if variant in ("CDN", "CDN-small") and num_supernodes <= 0:
        # Silently falling back to max(2, 0 // 2) would build a 2-server
        # CDN no matter the testbed — an unfair comparison that looks
        # like a result.  Demand the budget anchor explicitly.
        raise ValueError(
            f"variant {variant!r} sizes its edge deployment from the "
            f"CloudFog supernode budget (§4.1: half the sites for CDN, "
            f"an eighth for CDN-small), but num_supernodes is "
            f"{num_supernodes}; pass num_supernodes=<CloudFog budget> "
            f"(testbed or override) so the CDN site count is derived, "
            f"not defaulted")
    if variant == "Cloud":
        kwargs["num_supernodes"] = 0
        return cloud_only(**kwargs)
    if variant == "CDN":
        kwargs["num_supernodes"] = 0
        return cdn(max(2, num_supernodes // 2), **kwargs)
    if variant == "CDN-small":
        kwargs["num_supernodes"] = 0
        return cdn(max(2, num_supernodes // 8), **kwargs)
    if variant == "CloudFog/B":
        return cloudfog_basic(**kwargs)
    if variant == "CloudFog/A":
        return cloudfog_advanced(**kwargs)
    raise ValueError(f"unknown variant {variant!r}; pick from {VARIANTS}")


def build_system(variant: str, testbed: Testbed, seed: int = 0,
                 **overrides) -> CloudFogSystem:
    """Instantiate a ready-to-run system for a variant on a testbed."""
    return CloudFogSystem(variant_config(variant, testbed, seed, **overrides))


def run_variant(variant: str, testbed: Testbed, seed: int = 0,
                days: int = 3, checkpoint_dir=None,
                checkpoint_every: int = 1, **overrides) -> RunResult:
    """Build and run one variant; returns the measured results.

    :func:`run_config` over :func:`variant_config`, labelled with the
    variant name.
    """
    return run_config(variant_config(variant, testbed, seed, **overrides),
                      days, label=variant, checkpoint_dir=checkpoint_dir,
                      checkpoint_every=checkpoint_every)


def run_config(config: SystemConfig, days: int, label: str = "custom",
               checkpoint_dir=None, checkpoint_every: int = 1) -> RunResult:
    """Run an explicitly configured system under a ``run_variant`` span.

    Every system run opens one top-level ``run_variant`` trace span (a
    no-op unless :func:`repro.obs.enable` ran), labelled ``label``, so
    a multi-run sweep decomposes cleanly in a trace or ``--profile``
    breakdown.  The ablation figures (10-15) build bespoke
    :class:`SystemConfig`\\ s instead of named variants.  Passing
    ``checkpoint_dir`` snapshots the run every ``checkpoint_every``
    days (:mod:`repro.persist`); resume with :func:`resume_config`.
    """
    if days <= 0:
        raise ValueError("days must be positive")
    system = CloudFogSystem(config)
    hook = _checkpointer(checkpoint_dir, checkpoint_every)
    with obs.get_tracer().span("run_variant", variant=label,
                               seed=config.seed, days=days,
                               players=config.num_players):
        return system.run(days=days,
                          on_day_end=None if hook is None
                          else hook.on_day_end)


def run_sharded_config(config: SystemConfig, days: int, *,
                       shards: int = 1, label: str = "sharded",
                       checkpoint_dir=None, checkpoint_every: int = 1,
                       configure=None) -> RunResult:
    """Run a config as geographically sharded partitions and merge.

    Thin tracing wrapper over :func:`repro.core.shard.run_sharded`:
    fixed per-region partitions, ``shards`` worker processes, ordered
    deterministic merge — the merged result is identical for every
    ``shards`` value (pinned by ``tests/persist``).  ``configure`` is
    an optional picklable callable applied to every partition's freshly
    built state (see :func:`repro.core.shard.run_sharded`).
    """
    if days <= 0:
        raise ValueError("days must be positive")
    with obs.get_tracer().span("run_variant", variant=label,
                               seed=config.seed, days=days,
                               players=config.num_players, shards=shards):
        return run_sharded(config, days, shards=shards,
                           checkpoint_dir=checkpoint_dir,
                           checkpoint_every=checkpoint_every,
                           configure=configure)


def resume_config(source, days: int | None = None, checkpoint_dir=None,
                  checkpoint_every: int = 1) -> RunResult:
    """Resume an interrupted run from a checkpoint file or directory.

    By default the run finishes its originally planned schedule (the
    total day count is stored in the checkpoint); ``days`` overrides
    it.  Pass ``checkpoint_dir`` (often the same directory) to keep
    snapshotting the remaining days.
    """
    checkpointer = _checkpointer(checkpoint_dir, checkpoint_every)
    with obs.get_tracer().span("run_variant", variant="resume",
                               source=str(source)):
        return resume_run(source, days, checkpointer=checkpointer)
