"""CloudFog: fog-assisted cloud gaming for thin-client MMOG.

A full reproduction of Lin & Shen, "Leveraging Fog to Extend Cloud
Gaming for Thin-Client MMOG with High Quality of Experience"
(ICPP/ICDCS 2015; extended as CloudFog, IEEE TPDS).

Quickstart::

    from repro import CloudFogSystem, cloudfog_advanced
    system = CloudFogSystem(cloudfog_advanced(num_players=500,
                                              num_supernodes=30))
    result = system.run(days=3)
    print(result.mean_response_latency_ms, result.mean_continuity)

Packages:

* ``repro.core`` — the CloudFog system and its four strategies.
* ``repro.sim`` — the cycle schedule and seeded RNG streams (the
  event-level session's discrete-event engine is a test oracle,
  ``tests/sim/engine_oracle.py``).
* ``repro.network`` / ``repro.cloud`` / ``repro.streaming`` /
  ``repro.social`` / ``repro.reputation`` / ``repro.forecast`` /
  ``repro.economics`` / ``repro.workload`` — the substrates.
* ``repro.experiments`` — per-figure reproduction functions.
"""

from .core import (
    CloudFogSystem,
    RunResult,
    StrategyFlags,
    SystemConfig,
    cdn,
    cloud_only,
    cloudfog_advanced,
    cloudfog_basic,
)

__version__ = "1.0.0"

__all__ = [
    "CloudFogSystem",
    "RunResult",
    "StrategyFlags",
    "SystemConfig",
    "cdn",
    "cloud_only",
    "cloudfog_advanced",
    "cloudfog_basic",
    "__version__",
]
