"""Ablation: adaptation hysteresis (§3.3's consecutive-estimate rule).

The paper prevents bitrate fluctuation by adjusting only after the
trigger condition holds for several consecutive estimates.  This
ablation runs the event-level session under congestion with hysteresis
1 / 3 / 6 and reports the number of level adjustments and the resulting
continuity and bitrate.  A run's closed-form estimator has no
hysteresis, so the session here is the frozen discrete-event oracle in
``tests/streaming/event_session_oracle.py``.

Expected: the rule trades *reaction speed* for stability — a larger
hysteresis reacts later (lower continuity during the congested onset,
higher average bitrate) while never increasing the adjustment count.
"""

import pathlib
import sys

import numpy as np

from repro.metrics.tables import ResultTable
from repro.network.transport import PathSpec, TransportModel
from repro.workload.games import game_for_level

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent))
from tests.streaming.event_session_oracle import (  # noqa: E402
    SessionConfig,
    simulate_session,
)


def run_ablation(seed: int = 0, repetitions: int = 8):
    game = game_for_level(4)
    table = ResultTable(
        title="Ablation: adaptation hysteresis under congestion",
        columns=["hysteresis", "mean_adjustments", "mean_continuity",
                 "mean_kbps"])
    transport = TransportModel(jitter_fraction=0.25)
    for hysteresis in (1, 3, 6):
        adjustments, continuities, bitrates = [], [], []
        for rep in range(repetitions):
            config = SessionConfig(
                response_budget_ms=game.latency_requirement_ms,
                tolerance=game.tolerance,
                path=PathSpec(one_way_latency_ms=18.0,
                              sender_share_mbps=1.6,
                              receiver_download_mbps=8.0),
                upstream_one_way_ms=0.0,
                processing_ms=0.0,
                sender_utilization=0.55,
                duration_s=90.0,
                adaptive=True,
                hysteresis=hysteresis,
            )
            rng = np.random.default_rng(seed * 1000 + rep)
            result = simulate_session(config, rng, transport)
            adjustments.append(result.adjustments)
            continuities.append(result.continuity)
            bitrates.append(result.mean_bitrate_kbps)
        table.add_row(hysteresis, float(np.mean(adjustments)),
                      float(np.mean(continuities)), float(np.mean(bitrates)))
    return table


def test_ablation_adaptation_hysteresis(benchmark, emit):
    table = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit(table, "ablation_adaptation_hysteresis.txt")
    adjustments = table.column("mean_adjustments")
    continuity = table.column("mean_continuity")
    bitrates = table.column("mean_kbps")
    # Hysteresis never increases the number of adjustments...
    assert adjustments[0] >= adjustments[1] >= adjustments[2]
    # ...reacts later (quality held longer, so mean bitrate grows)...
    assert bitrates[0] <= bitrates[1] <= bitrates[2]
    # ...and the delayed reaction costs some continuity, bounded.
    assert continuity[0] >= continuity[1] >= continuity[2] - 1e-9
    assert min(continuity) > 0.5
