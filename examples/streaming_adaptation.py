"""Watch the receiver-driven rate adaptation react to congestion.

Scores the same game on the same path at increasing supernode load
(utilisation), with and without the §3.3 adaptation strategy, through
the closed-form session estimator every run scores its sessions with
(:func:`repro.streaming.estimate_continuity_batch`).  Shows the
estimate trading video quality for playback continuity — the Fig. 11
effect at single-session granularity.

The estimate is stationary: it scores the level adaptation settles at,
not the adapt-down transient on the way there, so at high load it is
more optimistic than an event-level session (EXPERIMENTS.md, Fig. 11).

Run with::

    python examples/streaming_adaptation.py
"""

import numpy as np

from repro.network.transport import TransportModel
from repro.streaming import estimate_continuity_batch
from repro.workload.games import game_for_level


def run_session(game, utilization: float, adaptive: bool):
    """Score one session; the outcome holds one array slot."""
    return estimate_continuity_batch(
        response_budget_ms=game.latency_requirement_ms,
        path_latency_ms=18.0,
        sender_share_mbps=2.0,
        receiver_download_mbps=8.0,
        upstream_one_way_ms=0.0,  # judge the delivery leg, as the system does
        processing_ms=0.0,
        sender_utilization=utilization,
        rng=np.random.default_rng(42),
        duration_s=60.0,
        adaptive=adaptive,
        transport=TransportModel(jitter_fraction=0.10),
    )


def main() -> None:
    game = game_for_level(4)  # EmpireForge: 1200 kbps, 90 ms budget
    print(f"Game: {game.name} ({game.genre}) — "
          f"{game.quality.bitrate_kbps} kbps default, "
          f"{game.latency_requirement_ms:.0f} ms delivery budget\n")

    header = (f"{'utilisation':>11} {'adaptive':>9} {'continuity':>11} "
              f"{'mean kbps':>10} {'final level':>12} {'adjustments':>12}")
    print(header)
    print("-" * len(header))
    for utilization in (0.0, 0.5, 0.85):
        for adaptive in (False, True):
            outcome = run_session(game, utilization, adaptive)
            print(f"{utilization:>11.2f} {str(adaptive):>9} "
                  f"{outcome.continuity[0]:>11.3f} "
                  f"{outcome.mean_bitrate_kbps[0]:>10.0f} "
                  f"{outcome.final_levels[0]:>12} "
                  f"{outcome.adjustments[0]:>12}")

    print("\nAt high utilisation the adaptive session settles a few")
    print("quality levels lower (smaller packets clear the congested")
    print("sender in time) and keeps its continuity, while the fixed-rate")
    print("session misses most of its delivery deadlines.")


if __name__ == "__main__":
    main()
