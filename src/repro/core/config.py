"""Configuration for CloudFog systems and experiments.

The paper evaluates several system variants:

* **Cloud** — the plain cloud-gaming model: the cloud computes state,
  renders and streams everything.
* **CDN / CDN-45 / CDN-8** — EdgeCloud-style: k CDN servers near users
  take over *all* tasks (state + rendering + streaming).
* **CloudFog/B** — the fog-assisted infrastructure alone: supernodes
  render/stream; candidates are filtered by capacity/distance/delay but
  the final pick among qualified candidates is random; no adaptation, no
  social assignment, fixed provisioning.
* **CloudFog/A** — /B plus all four strategies: reputation selection,
  receiver-driven adaptation, social server assignment, dynamic
  provisioning.

Every §4.1 default is a field here so experiments can sweep any knob.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..cloud.datacenter import DEFAULT_SERVERS_PER_DATACENTER
from ..faults.plan import FaultPlan
from ..sim.cycles import Schedule
from ..workload.overrides import WorkloadOverrides

__all__ = ["StrategyFlags", "SystemConfig", "cloud_only", "cloud_compressed",
           "cdn", "cloudfog_basic", "cloudfog_advanced"]


@dataclass(frozen=True)
class StrategyFlags:
    """Which of the four §3 strategies are active."""

    reputation_selection: bool = True
    rate_adaptation: bool = True
    social_assignment: bool = True
    dynamic_provisioning: bool = True

    @classmethod
    def none(cls) -> "StrategyFlags":
        return cls(False, False, False, False)

    @classmethod
    def all(cls) -> "StrategyFlags":
        return cls(True, True, True, True)


@dataclass(frozen=True)
class SystemConfig:
    """Full configuration of one experiment run."""

    # -- population / infrastructure (§4.1 simulation defaults, scaled) --
    num_players: int = 2000
    num_datacenters: int = 5
    #: Supernode count; §4.1 uses 600 per 100k players (6 per 1000).
    num_supernodes: int = 12
    servers_per_datacenter: int = DEFAULT_SERVERS_PER_DATACENTER
    #: Share of players with supernode-capable hardware.
    supernode_capable_share: float = 0.10

    # -- strategies --------------------------------------------------------
    strategies: StrategyFlags = field(default_factory=StrategyFlags.none)

    # -- selection ---------------------------------------------------------
    #: How many physically-close candidates the cloud returns (§3.2.1).
    candidate_count: int = 8
    #: Reputation aging factor lambda.
    aging_factor: float = 0.95

    #: Fixed per-supernode capacity instead of the Pareto draw — used by
    #: the Fig. 10/11 experiments whose x-axis is players-per-supernode.
    supernode_capacity_override: int | None = None
    #: Fixed supernode upload (Mbit/s) instead of capacity-proportional
    #: provisioning — models fixed desktop hardware stretched across a
    #: growing player load (Figs. 10-11).
    supernode_upload_override_mbps: float | None = None

    # -- supernode behaviour (§4.1 throttling settings) ----------------------
    #: Share of supernodes that throttle to 80 % of capacity.
    throttle_80_share: float = 1.0 / 5.0
    #: Share of supernodes that throttle to 50 % of capacity.
    throttle_50_share: float = 1.0 / 10.0
    #: Per-cycle probability that a designated throttler actually throttles.
    throttle_probability: float = 0.5

    # -- schedule ------------------------------------------------------------
    schedule: Schedule = field(default_factory=Schedule)

    # -- provisioning (§3.5) ---------------------------------------------
    #: epsilon — supernode over-provisioning scale factor (Eq. 15).
    provisioning_epsilon: float = 0.2
    #: Forecast window m in hours (the paper predicts every 4 hours).
    provisioning_window_hours: int = 4

    # -- misc ----------------------------------------------------------------
    seed: int = 42
    #: Baseline mode: "cloudfog", "cloud", or "cdn".
    mode: str = "cloudfog"
    #: CDN server count (only for mode == "cdn").
    num_cdn_servers: int = 6
    #: LiveRender-style compressed graphics streaming on the cloud's
    #: direct flows (§2 comparison): cuts egress, not the path.
    cloud_compression: bool = False

    # -- faults (repro.faults) -------------------------------------------
    #: Deterministic fault schedule injected during the subcycle sweep.
    #: None (the default) keeps every output bit-identical to a system
    #: built before the fault subsystem existed (pinned by
    #: ``tests/faults/test_equivalence.py``).
    fault_plan: FaultPlan | None = None

    # -- workload (repro.workload.overrides) -----------------------------
    #: Participation, start-time, duration, game-mix, timezone, quality
    #: and flash-crowd overrides; the default overrides nothing.
    workload: WorkloadOverrides = field(default_factory=WorkloadOverrides)

    def __post_init__(self) -> None:
        if self.num_players <= 0:
            raise ValueError("num_players must be positive")
        if self.num_datacenters <= 0:
            raise ValueError("num_datacenters must be positive")
        if self.num_supernodes < 0:
            raise ValueError("num_supernodes must be non-negative")
        if self.mode not in ("cloudfog", "cloud", "cdn"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.candidate_count < 1:
            raise ValueError("candidate_count must be >= 1")
        if not 0 < self.aging_factor < 1:
            raise ValueError("aging_factor must lie in (0, 1)")
        if self.throttle_80_share + self.throttle_50_share > 1:
            raise ValueError("throttle_80_share + throttle_50_share cannot "
                             "exceed 1")
        if self.provisioning_epsilon < 0:
            raise ValueError("provisioning_epsilon must be non-negative")
        if self.provisioning_window_hours < 1:
            raise ValueError("provisioning_window_hours must be >= 1")
        if (self.supernode_capacity_override is not None
                and self.supernode_capacity_override < 1):
            raise ValueError("supernode_capacity_override must be >= 1")
        if (self.supernode_upload_override_mbps is not None
                and self.supernode_upload_override_mbps <= 0):
            raise ValueError("supernode_upload_override_mbps must be positive")

    def with_(self, **changes) -> "SystemConfig":
        """A modified copy (sweep helper)."""
        return replace(self, **changes)


def cloud_only(**overrides) -> SystemConfig:
    """The plain cloud-gaming baseline."""
    return SystemConfig(mode="cloud", num_supernodes=0,
                        strategies=StrategyFlags.none()).with_(**overrides)


def cloud_compressed(**overrides) -> SystemConfig:
    """LiveRender-style baseline: cloud + compressed graphics streaming."""
    return SystemConfig(mode="cloud", num_supernodes=0,
                        cloud_compression=True,
                        strategies=StrategyFlags.none()).with_(**overrides)


def cdn(num_servers: int, **overrides) -> SystemConfig:
    """The EdgeCloud-style CDN baseline with ``num_servers`` edge sites."""
    return SystemConfig(mode="cdn", num_supernodes=0,
                        num_cdn_servers=num_servers,
                        strategies=StrategyFlags.none()).with_(**overrides)


def cloudfog_basic(**overrides) -> SystemConfig:
    """CloudFog/B: the fog infrastructure without the four strategies."""
    return SystemConfig(mode="cloudfog",
                        strategies=StrategyFlags.none()).with_(**overrides)


def cloudfog_advanced(**overrides) -> SystemConfig:
    """CloudFog/A: the fog infrastructure with all four strategies."""
    return SystemConfig(mode="cloudfog",
                        strategies=StrategyFlags.all()).with_(**overrides)
