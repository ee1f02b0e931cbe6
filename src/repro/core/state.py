"""Shared mutable simulation state: the bottom layer of the pipeline.

:class:`SimState` is everything one deployed gaming system *is* —
population, infrastructure (supernode pool / CDN sites), sticky
sessions, reputation ledgers, caches — with none of the per-epoch
mechanics.  The stage modules (``core.lifecycle``, ``core.scoring``,
``core.accounting``, ``repro.faults.handlers``) and the orchestrator
(``core.sweep``) are module-level units operating *on* a state; the
:class:`~repro.core.system.CloudFogSystem` façade wires
config → state → pipeline.

Layering contract (enforced by ``tools/check_layering.py``): this
module imports only the foundation layers (network, sim, workload,
streaming, cloud, economics, reputation, rendering, forecast, obs, the
faults runtime) plus the leaf ``core`` modules (config, columns,
entities, candidates, selection, provisioning) — never a stage module, the
orchestrator, or ``experiments``.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .. import obs
from ..cloud.datacenter import Datacenter
from ..economics.ledger import CreditLedger
from ..faults import FaultSummary, build_injector
from ..network.bandwidth import BandwidthModel
from ..network.transport import TransportModel
from ..reputation.ratings import RatingLedger
from ..reputation.scores import ReputationTable
from ..sim.rng import RngFactory
from ..streaming.compression import LIVERENDER_LIKE
from ..workload.churn import DurationMixture, StartTimeModel
from ..workload.games import Game
from ..workload.population import Population, build_population
from .candidates import CandidateManager
from .columns import (KIND_CDN, KIND_CLOUD, KIND_SUPERNODE, SessionColumns,
                      SupernodePool)
from .config import SystemConfig
from .entities import ConnectionKind
from .provisioning import Provisioner
from .selection import SupernodeDirectory

__all__ = ["SUPERNODE_MBPS_PER_SLOT", "JoinOutcome", "SessionTable",
           "SimState",
           "build_supernode_pool", "build_cdn_sites", "deploy",
           "set_arrival_rates", "cloud_one_way_ms", "player_supernode_ms",
           "KIND_OF_CODE"]

#: Upload provisioned per supernode player slot (Mbit/s): enough for the
#: top Table-2 level on one stream plus headroom across slots.
SUPERNODE_MBPS_PER_SLOT = 3.0

#: ConnectionKind → SessionColumns integer code (columns.py sits below
#: entities in the layering, so the mapping lives here), and back.
_KIND_CODE = {ConnectionKind.SUPERNODE: KIND_SUPERNODE,
              ConnectionKind.CLOUD: KIND_CLOUD,
              ConnectionKind.CDN: KIND_CDN}
KIND_OF_CODE = {code: kind for kind, code in _KIND_CODE.items()}


class JoinOutcome(NamedTuple):
    """Where one starting session connected (``lifecycle.join``).

    ``supernode_id`` is None for cloud and CDN sessions;
    ``join_latency_ms`` is None when the join ran no selection (a
    sticky reuse, the cloud and CDN baselines).
    """

    kind: ConnectionKind
    supernode_id: int | None
    downstream_ms: float
    upstream_ms: float
    join_latency_ms: float | None


class SessionTable:
    """The day's sessions: one :class:`SessionColumns` row per player.

    Row ``p`` is player ``p``'s session while ``active[p] == 1``.  The
    table adds only the insertion order of its live players, because
    scoring draws its random numbers in that order.  Every stage reads
    and writes the rows directly; there is no per-session object.
    """

    __slots__ = ("columns", "_order")

    def __init__(self, num_players: int) -> None:
        self.columns = SessionColumns(num_players)
        #: Live players in insertion order (an ordered set).
        self._order: dict[int, None] = {}

    def add(self, players: list[int], start: int, ends: list[int],
            joins: list[JoinOutcome]) -> None:
        """Insert the sessions of ``players``, all starting at ``start``.

        ``joins`` are the players' join outcomes and ``ends`` their
        inclusive last subcycles.  Each row is written whole, since the
        slot may hold a dead earlier session.
        """
        cols = self.columns
        rows = np.asarray(players, dtype=np.intp)
        kinds, sids, downstream, upstream, join_ms = zip(*joins)
        cols.active[rows] = 1
        cols.kind[rows] = [_KIND_CODE[kind] for kind in kinds]
        cols.supernode_id[rows] = [-1 if sid is None else sid
                                   for sid in sids]
        cols.latency_ms[rows] = downstream
        cols.upstream_ms[rows] = upstream
        cols.join_latency_ms[rows] = join_ms
        cols.start_subcycle[rows] = start
        cols.end_subcycle[rows] = ends
        self._order.update(dict.fromkeys(players))

    def discard(self, player: int) -> None:
        """Take ``player``'s session out of service, if it has one."""
        if player in self._order:
            del self._order[player]
            self.columns.active[player] = 0

    def players(self) -> np.ndarray:
        """The live players, in insertion order."""
        return np.fromiter(self._order, dtype=np.intp,
                           count=len(self._order))

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, player: int) -> bool:
        return player in self._order


class SimState:
    """The shared mutable state of one deployed gaming system."""

    def __init__(self, config: SystemConfig,
                 population: Population | None = None) -> None:
        self.config = config
        self.rng_factory = RngFactory(config.seed)
        self.supernode_join_latencies_ms: list[float] = []
        rng = self.rng_factory.stream("population")
        self.population = population or build_population(
            rng, config.num_players, config.num_datacenters,
            config.supernode_capable_share)
        self.topology = self.population.topology
        self.transport = TransportModel()
        # Fault injection (repro.faults).  Without a FaultPlan this is
        # the shared no-op injector: no RNG stream is created, no hook
        # fires, and every output stays bit-identical to a system built
        # before the subsystem existed (pinned by tests/faults).
        self.faults = build_injector(config.fault_plan)
        if config.fault_plan is not None:
            # Fail fast with an actionable message instead of deep in
            # the sweep: subcycles and datacenter targets must fit the
            # schedule/topology this plan is about to run against.
            config.fault_plan.validate_for(
                config.schedule.hours_per_day, config.num_datacenters)
        self.failure_detector = self.faults.detector
        self.retry_policy = self.faults.retry
        if (config.fault_plan is not None
                and config.fault_plan.ambient_loss_boost > 0.0):
            self.transport = self.transport.degraded(
                config.fault_plan.ambient_loss_boost)
        #: Accounting for out-of-band ``fail_supernodes`` calls (in-run
        #: injection accounts into ``RunResult.faults`` instead).
        self.fault_outcomes = FaultSummary()
        self.current_day = 0
        self.deployed_count = 0

        # LiveRender-style compression on direct cloud flows (§2).
        self.compression = (LIVERENDER_LIKE if config.cloud_compression
                            else None)

        # Contributor credit accounting (§3.1.1 incentives).
        self.credits = CreditLedger()

        # Reputation state.  Unrated supernodes get an optimistic prior
        # near an honest supernode's typical continuity, so players keep
        # exploring (see ReputationTable's docstring / DESIGN.md).
        self.ledger = RatingLedger()
        self.reputation = ReputationTable(self.ledger, config.aging_factor,
                                          neutral_prior=0.9)

        # Game-state datacenters (server latency substrate).
        self.datacenters = [
            Datacenter(i, num_servers=config.servers_per_datacenter)
            for i in range(config.num_datacenters)]
        self.nearest_dc = np.argmin(
            self.topology.player_datacenter_distances(), axis=1)
        # Columnar per-player cloud latency: the nearest-datacenter
        # one-way delay, precomputed once: the elementwise latency
        # formula and its min, evaluated over the whole (n, d) matrix;
        # every join reads its upstream delay from here.
        latency_model = self.topology.latency_model
        self.cloud_ms = np.min(latency_model.one_way_ms(
            self.topology.player_datacenter_distances(),
            self.topology.player_access_ms[:, None],
            latency_model.datacenter_access_ms), axis=1)

        # Infrastructure by mode.
        #: The cloud's supernode table (empty outside CloudFog).
        self.supernode_pool = SupernodePool([], [], [], [])
        #: Ids of the live supernodes, in deployment order: fault
        #: targeting draws indices into it and ``SweepLoads`` rows
        #: follow it.
        self.live_supernodes: list[int] = []
        self.directory: SupernodeDirectory | None = None
        self.cdn_coords = np.empty((0, 2))
        self.cdn_access = np.empty(0)
        if config.mode == "cloudfog":
            self.supernode_pool = build_supernode_pool(self)
            self.directory = SupernodeDirectory(self.topology,
                                                self.supernode_pool)
            count = min(config.num_supernodes, len(self.supernode_pool))
            deploy(self, list(range(count)))
            # Supernode join latency (Fig. 9), sampled once for the
            # construction-time deployment: one RTT to the cloud +
            # registration.
            for host in self.supernode_pool.host_player[:count].tolist():
                rtt = 2.0 * float(self.cloud_ms[host])
                self.supernode_join_latencies_ms.append(rtt + 20.0)
        elif config.mode == "cdn":
            build_cdn_sites(self)

        # Provisioner (dynamic provisioning strategy only).
        self.provisioner: Provisioner | None = None
        if (config.mode == "cloudfog"
                and config.strategies.dynamic_provisioning
                and self.supernode_pool):
            mean_capacity = float(np.mean(self.supernode_pool.capacity))
            self.provisioner = Provisioner(
                average_capacity=mean_capacity,
                epsilon=config.provisioning_epsilon,
                window_hours=config.provisioning_window_hours)

        #: Day-of-week participation weights (set by set_arrival_rates).
        self.weekly_weights = None

        # Churn state (§3.2.2): per-player candidate supernode lists
        # plus the sticky last-used supernode.
        self.candidates = CandidateManager(
            max_entries=config.candidate_count)
        self.sticky: dict[int, int] = {}
        self.games: dict[int, Game] = {}
        self.duration_mixture = DurationMixture()
        self.start_times = StartTimeModel()
        #: Optional override of daily participants (provisioning sweeps).
        self.daily_participants: int | None = None
        self.server_latency_cache: dict[int, float] = {}

        # Scenario seam (repro.scenarios): set-once overrides installed
        # by a scenario's ``configure`` hook before the run starts.
        # The null defaults leave every baseline sweep bit-identical.
        #: Extra sweep stages, run by ``stage_scenario`` each subcycle.
        self.scenario_stages: tuple = ()
        #: Per-game sampling weights ``{game name: weight}`` (None =
        #: the default social/permutation draw).
        self.game_weights: dict[str, float] | None = None
        #: Per-region start-subcycle shifts (timezone profiles), one
        #: entry per datacenter region, cycled when shorter.
        self.start_offsets: tuple | None = None
        #: Quality-ladder ceiling: sessions never stream above this
        #: ladder level (bandwidth-constrained thin clients).
        self.quality_ceiling: int | None = None


# ----------------------------------------------------------------------
# infrastructure construction
# ----------------------------------------------------------------------
def build_supernode_pool(state: SimState) -> SupernodePool:
    """The supernode table over the qualified capable players.

    §3.1.1: "The nodes with sufficient hardware are chosen as
    supernodes" — a contributor's GPU must render several streams
    at once (integrated graphics do not qualify), and the player
    capacity is the tighter of the bandwidth-derived Pareto draw
    and the machine's render budget.  Capacity overrides (the
    Fig. 10/11 sweeps) bypass the render limit by design.
    """
    from ..rendering.capability import RenderCapability, sample_gpu_tiers

    config = state.config
    topology = state.topology
    rng = state.rng_factory.stream("supernodes")
    model = BandwidthModel()
    capable = state.population.capable_players()
    hosts = capable[rng.permutation(len(capable))]
    tiers = sample_gpu_tiers(rng, len(hosts))
    if config.supernode_capacity_override is not None:
        capacities = np.full(len(hosts),
                             config.supernode_capacity_override,
                             dtype=np.int64)
    else:
        capacities = model.sample_supernode_capacities(rng, len(hosts))
    kept_hosts, kept_capacities, kept_tiers = [], [], []
    for host, capacity, tier in zip(hosts.tolist(), capacities, tiers):
        if config.supernode_capacity_override is None:
            render = RenderCapability(tier)
            if not render.meets_supernode_requirement():
                continue
            capacity = min(int(capacity), render.render_capacity())
        kept_hosts.append(host)
        kept_capacities.append(int(capacity))
        kept_tiers.append(tier)
    capacity = np.array(kept_capacities, dtype=np.int64)
    # Supernodes have superior connections (§3.1.1): access delay is
    # the better of the host's last mile and a business line.
    host = np.array(kept_hosts, dtype=np.int64)
    upload = (np.full(len(host), config.supernode_upload_override_mbps,
                      dtype=np.float64)
              if config.supernode_upload_override_mbps is not None
              else capacity * SUPERNODE_MBPS_PER_SLOT)
    # Designate the §4.1 throttling classes over the whole pool.
    n = len(host)
    n80 = int(n * config.throttle_80_share)
    n50 = int(n * config.throttle_50_share)
    marked = rng.permutation(n)
    throttle_class = np.ones(n)
    throttle_class[marked[:n80]] = 0.8
    throttle_class[marked[n80:n80 + n50]] = 0.5
    return SupernodePool(
        host_player=host, capacity=capacity, upload_mbps=upload,
        access_ms=np.minimum(topology.player_access_ms[host], 8.0),
        x_km=topology.player_coords[host, 0],
        y_km=topology.player_coords[host, 1],
        throttle_class=throttle_class, gpu_tier=kept_tiers)


def deploy(state: SimState, supernode_ids: list[int]) -> None:
    """Set the live supernodes: these ids online, every other offline."""
    obs.get_registry().gauge("repro_live_supernodes").set(
        len(supernode_ids))
    state.deployed_count = len(supernode_ids)
    pool = state.supernode_pool
    pool.set_online(np.arange(pool.size), False)
    pool.set_online(supernode_ids, True)
    state.live_supernodes = list(supernode_ids)


def build_cdn_sites(state: SimState) -> None:
    """CDN baseline: k edge sites at random player locations."""
    rng = state.rng_factory.stream("cdn")
    count = min(state.config.num_cdn_servers, state.topology.num_players)
    picks = rng.choice(state.topology.num_players, size=count,
                       replace=False)
    state.cdn_coords = state.topology.player_coords[picks].copy()
    state.cdn_access = np.full(count, 3.0)


# ----------------------------------------------------------------------
# workload knobs
# ----------------------------------------------------------------------
def set_arrival_rates(state: SimState, offpeak_per_min: float,
                      peak_per_min: float) -> None:
    """Drive daily participation from arrival rates (Figs. 13-15).

    Off-peak joiners arrive over 19 subcycles, peak joiners over 5;
    the start-time split follows from the two rates.
    """
    if offpeak_per_min < 0 or peak_per_min < 0:
        raise ValueError("arrival rates must be non-negative")
    offpeak_total = offpeak_per_min * 60.0 * 19.0
    peak_total = peak_per_min * 60.0 * 5.0
    total = offpeak_total + peak_total
    if total <= 0:
        raise ValueError("at least one arrival rate must be positive")
    state.daily_participants = int(round(total))
    state.start_times = StartTimeModel(offpeak_share=offpeak_total / total)
    # Arrival-driven participation follows the weekly pattern the
    # paper's forecasting premise rests on ([36, 37]): weekends run
    # hotter, midweek cooler.
    from ..forecast.diurnal import DiurnalPattern
    state.weekly_weights = DiurnalPattern().daily_weights


# ----------------------------------------------------------------------
# path latency queries (single formula: network.latency)
# ----------------------------------------------------------------------
def cloud_one_way_ms(state: SimState, player: int) -> float:
    """One-way latency from a player to its nearest datacenter."""
    return float(state.cloud_ms[player])


def player_supernode_ms(state: SimState, player: int,
                        supernode_id: int) -> float:
    """One-way latency from a player to a supernode host."""
    topology = state.topology
    pool = state.supernode_pool
    return topology.latency_model.point_one_way_ms(
        topology.player_coords[player, 0], topology.player_coords[player, 1],
        float(pool.x_km[supernode_id]), float(pool.y_km[supernode_id]),
        topology.player_access_ms[player],
        float(pool.access_ms[supernode_id]))
