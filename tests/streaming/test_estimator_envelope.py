"""The closed-form estimator's error on sessions a run really scores.

A run scores every session with ``estimate_continuity_batch``: the
stationary level adaptation settles at, plus sampled per-packet delays.
The event-level session (``event_session_oracle.simulate_session``)
models what that estimate leaves out: the sender queue's backlog, the
playback buffer and the §3.3 controller walking down the ladder with
hysteresis.  This test records the arrays a real run hands the
estimator on its last day, replays a sample of those sessions through
the event-level oracle with the same parameters, and bounds the gap.

Measured with Δ = estimate − event-level continuity (1,000 players,
seed 4, 3 days, last day's 1,000 sessions, 300 sampled per variant):

* CloudFog/A: mean Δ −0.000, p95 |Δ| 0.015, 1.3 % of sessions beyond
  0.10, satisfied verdicts agree on 97.7 %;
* Cloud: mean Δ +0.014, p95 |Δ| 0.031, 2.0 % beyond 0.10, 99.0 %
  agreement.

Both runs keep every sender below 0.85 utilisation (maximum 0.64 and
0.30), where the estimator is known to be optimistic: it scores the
settled level, not the adapt-down transient (EXPERIMENTS.md, Fig. 11).
The bounds below leave margin over those values; the event-level pass
takes about 1.5 s per variant.
"""

import numpy as np
import pytest

from repro.core import scoring
from repro.experiments.runner import build_system
from repro.experiments.testbeds import peersim
from repro.network.transport import PathSpec
from repro.streaming.video import level_for_latency_requirement

from .event_session_oracle import SessionConfig, simulate_session

PLAYERS = 1000
SEED = 4
DAYS = 3
SAMPLE = 300
#: Utilisation from which the loss model and the adapt-down transient
#: make the stationary estimate optimistic.
OPTIMISTIC_UTILIZATION = 0.85


def last_day_call(monkeypatch, variant):
    """Run ``variant`` and return the estimator's last-day arguments."""
    calls = []
    real = scoring.estimate_continuity_batch

    def spy(*args, **kwargs):
        outcome = real(*args, **kwargs)
        calls.append((args, kwargs, outcome))
        return outcome

    monkeypatch.setattr(scoring, "estimate_continuity_batch", spy)
    build_system(variant, peersim(0.01), SEED,
                 num_players=PLAYERS).run(days=DAYS)
    assert len(calls) == DAYS
    return calls[-1]


def replay(call):
    """Estimate minus event-level continuity, and satisfied agreement."""
    args, kwargs, outcome = call
    (budgets, path_ms, sender_mbps, receiver_mbps, upstream_ms,
     processing_ms, utilization, _rng) = args
    picks = np.random.default_rng(0).choice(
        len(budgets), size=min(SAMPLE, len(budgets)), replace=False)
    deltas, agree = [], []
    for index in picks.tolist():
        budget = float(budgets[index])
        config = SessionConfig(
            response_budget_ms=budget,
            tolerance=level_for_latency_requirement(budget).tolerance,
            path=PathSpec(float(path_ms[index]), float(sender_mbps[index]),
                          float(receiver_mbps[index])),
            upstream_one_way_ms=float(upstream_ms[index]),
            processing_ms=float(processing_ms[index]),
            sender_utilization=float(utilization[index]),
            duration_s=kwargs["duration_s"],
            adaptive=bool(kwargs["adaptive"]),
        )
        event = simulate_session(config, np.random.default_rng(index),
                                 kwargs["transport"])
        deltas.append(float(outcome.continuity[index]) - event.continuity)
        agree.append(bool(outcome.satisfied[index]) == event.satisfied)
    return np.array(deltas), float(np.mean(agree))


@pytest.mark.parametrize("variant", ["CloudFog/A", "Cloud"],
                         ids=["cloudfog-a", "cloud"])
def test_estimator_stays_inside_its_envelope(monkeypatch, variant):
    call = last_day_call(monkeypatch, variant)
    utilization = call[0][6]
    assert float(np.max(utilization)) < OPTIMISTIC_UTILIZATION
    deltas, agreement = replay(call)
    magnitude = np.abs(deltas)
    assert abs(float(deltas.mean())) <= 0.03
    assert float(np.quantile(magnitude, 0.95)) <= 0.10
    assert float(np.mean(magnitude > 0.10)) <= 0.06
    assert agreement >= 0.94
