"""CloudFog core: the paper's primary contribution.

The public API most users want:

>>> from repro.core import cloudfog_advanced, CloudFogSystem
>>> system = CloudFogSystem(cloudfog_advanced(num_players=500))
>>> result = system.run(days=3)
>>> result.mean_continuity  # doctest: +SKIP
"""

from .candidates import CandidateEntry, CandidateManager
from .config import (
    StrategyFlags,
    SystemConfig,
    cdn,
    cloud_compressed,
    cloud_only,
    cloudfog_advanced,
    cloudfog_basic,
)
from .columns import SupernodePool
from .entities import ConnectionKind
from .provisioning import (
    Provisioner,
    rank_preference_selection,
    required_supernodes,
)
from .selection import (
    SelectionOutcome,
    SupernodeDirectory,
    delay_threshold_ms,
    select_supernode,
)
from .server_assignment import (
    AssignmentResult,
    assign_players_randomly,
    assign_players_socially,
)
from .accounting import (
    DayMetrics,
    RunResult,
    SessionLog,
    SessionRecord,
    SweepLoads,
)
from .lifecycle import MigrationOutcome
from .state import SimState
from .system import CloudFogSystem

__all__ = [
    "CandidateEntry",
    "CandidateManager",
    "StrategyFlags",
    "SystemConfig",
    "cdn",
    "cloud_compressed",
    "cloud_only",
    "cloudfog_advanced",
    "cloudfog_basic",
    "ConnectionKind",
    "SupernodePool",
    "Provisioner",
    "rank_preference_selection",
    "required_supernodes",
    "SelectionOutcome",
    "SupernodeDirectory",
    "delay_threshold_ms",
    "select_supernode",
    "AssignmentResult",
    "assign_players_randomly",
    "assign_players_socially",
    "CloudFogSystem",
    "SimState",
    "DayMetrics",
    "RunResult",
    "SessionLog",
    "SessionRecord",
    "SweepLoads",
    "MigrationOutcome",
]
