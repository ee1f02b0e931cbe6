"""The columnar scoring gather reproduces the scalar loop bit for bit.

Two layers are pinned with ``==``, never a tolerance:

* the window-mean kernel (:func:`repro.core.scoring.window_means`)
  against one ``slice.mean()`` per window, over windows of 1–26
  subcycles (9 and up exercise numpy's pairwise summation blocks),
  repeated windows and load cells built the way the sweep builds them,
  as running sums of game stream rates;
* whole days: every day a run scores goes through both
  :func:`~repro.core.scoring.score_sessions_batch` and the scalar
  oracle ``scoring_oracle.score_sessions_scalar`` on twin RNG
  streams, over generated configs — cloud compression, CDN mode, a
  throttle probability of 1, and fault healing, which grows load rows
  mid-day and pushes fog sessions to the cloud.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloudFogSystem, scoring
from repro.core import config as configs
from repro.core.accounting import SweepLoads
from repro.faults.plan import FaultEvent, FaultPlan, HealingPolicy
from repro.workload.games import GAME_CATALOGUE

from .scoring_oracle import score_sessions_scalar

WIDTH = 28  # hours + 2 slots, as in SweepLoads
RATES = [game.stream_rate_mbps for game in GAME_CATALOGUE]

_spans = st.tuples(st.integers(0, 5), st.integers(1, 26),
                   st.integers(1, 26), st.sampled_from(RATES))
_windows = st.tuples(st.integers(0, 5), st.integers(1, 26),
                     st.integers(1, 26))


def _load_matrix(spans) -> np.ndarray:
    """Six rows of stream-rate sums: each span adds its rate to its
    slots one session at a time, like the sweep's load commits."""
    matrix = np.zeros((6, WIDTH))
    for row, start, length, rate in spans:
        end = min(WIDTH, start + length)
        matrix[row, start:end] += rate
    return matrix


@given(spans=st.lists(_spans, max_size=60),
       windows=st.lists(_windows, min_size=1, max_size=40),
       repeats=st.lists(st.integers(0, 39), max_size=20),
       noise=st.booleans())
@settings(max_examples=200, deadline=None)
def test_window_means_equal_slice_means(spans, windows, repeats, noise):
    matrix = _load_matrix(spans)
    if noise:
        matrix += np.random.default_rng(len(spans)).random(matrix.shape)
    windows = windows + [windows[i % len(windows)] for i in repeats]
    rows = np.array([row for row, _, _ in windows])
    starts = np.array([start for _, start, _ in windows])
    lengths = np.array([min(length, WIDTH - start)
                        for _, start, length in windows])
    expected = [matrix[row, start:start + length].mean()
                for row, start, length in zip(rows, starts, lengths)]
    assert scoring.window_means(matrix, rows, starts,
                                lengths).tolist() == expected


def test_window_means_of_long_uneven_windows():
    """Long windows of uneven values, where pairwise summation and a
    running or prefix sum round differently."""
    matrix = np.random.default_rng(5).random((3, WIDTH)) * 1e3
    matrix[1] = np.cumsum(matrix[1]) * 1e-7
    rows = np.repeat(np.arange(3), 26)
    lengths = np.tile(np.arange(1, 27), 3)
    starts = np.ones_like(lengths)
    expected = [matrix[row, 1:1 + length].mean()
                for row, length in zip(rows, lengths)]
    assert scoring.window_means(matrix, rows, starts,
                                lengths).tolist() == expected


def _scored_days(config, days):
    """Run ``config``; score every day both ways and compare.

    Returns the days' records and what the days exercised: the ids of
    load rows grown mid-day, how many sessions a fault degraded to the
    cloud and how many fog sessions averaged under one player on their row (a
    session moved mid-window; its share clamps the count to 1).
    """
    batch_scorer = scoring.score_sessions_batch
    seen = {"records": [], "grown": set(), "degraded": 0, "thin": 0}
    ensure_row = SweepLoads.ensure_row

    def tracking_ensure_row(loads, supernode_id):
        if loads.row(supernode_id) is None:
            seen["grown"].add(supernode_id)
        return ensure_row(loads, supernode_id)

    def checked(state, day, sessions, loads, cloud_rate, rng):
        twin = copy.deepcopy(rng)
        records = batch_scorer(state, day, sessions, loads, cloud_rate,
                               rng)
        assert records == score_sessions_scalar(
            state, day, sessions, loads, cloud_rate, twin)
        cols = sessions.columns
        players = sessions.players()
        for player in players[cols.supernode_id[players] >= 0].tolist():
            row = loads.row(int(cols.supernode_id[player]))
            window = slice(cols.start_subcycle[player],
                           cols.end_subcycle[player] + 1)
            seen["thin"] += int(loads.counts[row, window].mean() < 1.0)
        seen["records"].extend(records)
        return records

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring, "score_sessions_batch", checked)
        patch.setattr(SweepLoads, "ensure_row", tracking_ensure_row)
        seen["degraded"] = CloudFogSystem(config).run(
            days=days).faults.degraded
    return seen


def _healing_plan(datacenter: int, crash_count: int) -> FaultPlan:
    return FaultPlan(
        events=(
            FaultEvent(day=0, subcycle=9, kind="dc_outage",
                       datacenter=datacenter),
            FaultEvent(day=0, subcycle=13, kind="crash",
                       count=crash_count),
            FaultEvent(day=0, subcycle=15, kind="degrade_link",
                       extra_ms=12.0),
            FaultEvent(day=1, subcycle=11, kind="preempt", count=2),
        ),
        healing=HealingPolicy(delay_subcycles=2),
        transient_refusal_prob=0.2)


def test_healed_and_degraded_sessions_score_identically():
    # A small fixed upload makes every supernode share bind, so the
    # one-player floor on a moved session's mean count shows in the
    # records.
    config = configs.cloudfog_advanced(
        num_players=200, num_supernodes=14, seed=2, num_datacenters=2,
        throttle_probability=1.0, cloud_compression=True,
        supernode_upload_override_mbps=2.0,
        fault_plan=_healing_plan(datacenter=0, crash_count=3))
    seen = _scored_days(config, days=2)
    # The run must have scored what it claims to pin.
    assert seen["grown"] and seen["degraded"] and seen["thin"]
    assert any(record.target in seen["grown"]
               for record in seen["records"])


_configs = st.builds(
    lambda build, seed, compression, throttle, faults: build(seed).with_(
        cloud_compression=compression, throttle_probability=throttle,
        fault_plan=faults),
    build=st.sampled_from([
        lambda seed: configs.cloudfog_advanced(
            num_players=120, num_supernodes=8, num_datacenters=3,
            seed=seed),
        lambda seed: configs.cloudfog_basic(
            num_players=120, num_supernodes=8, num_datacenters=3,
            seed=seed),
        lambda seed: configs.cdn(3, num_players=120, num_datacenters=3,
                                 seed=seed),
        lambda seed: configs.cloud_only(num_players=120,
                                        num_datacenters=3, seed=seed),
    ]),
    seed=st.integers(0, 10_000),
    compression=st.booleans(),
    throttle=st.sampled_from([0.5, 1.0]),
    faults=st.none() | st.builds(_healing_plan, st.integers(0, 2),
                                 st.integers(1, 3)))


@given(config=_configs)
@settings(max_examples=12, deadline=None)
def test_batch_days_equal_scalar_days(config):
    assert _scored_days(config, days=2)["records"]
