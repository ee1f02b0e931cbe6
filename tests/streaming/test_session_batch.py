"""Batch estimator equivalence: bit-identical to the scalar oracle.

The batch scorer's whole value rests on the RNG-ordering contract
documented on :func:`estimate_continuity_batch`: scoring ``n`` sessions
with one vectorised call must consume the generator stream exactly as
``n`` calls of the per-session oracle (``session_oracle.py``) would,
and every arithmetic step must be element-wise identical.  These tests
pin that contract field by field — ``==``, never ``approx`` — on seeded
draws and on generated sessions that sit on the model's edges: budgets
on the Table-2 level boundaries, sender utilisation 0, just below 1 and
above 1, receiver links below the stream bitrate and link rates whose
adapt-down threshold equals a level's bitrate exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.network.transport import PathSpec, TransportModel
from repro.streaming.session import (
    SessionConfig,
    estimate_continuity_batch,
    initial_levels_batch,
    stationary_levels_batch,
)
from repro.streaming.video import QUALITY_LADDER

from .session_oracle import estimate_continuity, stationary_level

N_SAMPLES = 64


def make_params(n, seed):
    """Varied per-session parameter arrays covering all quality levels."""
    rng = np.random.default_rng(seed)
    return dict(
        response_budget_ms=rng.choice([60.0, 80.0, 90.0, 110.0, 150.0],
                                      size=n),
        path_latency_ms=rng.uniform(2.0, 45.0, size=n),
        sender_share_mbps=rng.uniform(0.3, 8.0, size=n),
        receiver_download_mbps=rng.uniform(4.0, 30.0, size=n),
        upstream_one_way_ms=rng.uniform(0.0, 30.0, size=n),
        processing_ms=rng.choice([0.0, 5.0], size=n),
        sender_utilization=rng.uniform(0.0, 1.6, size=n),
    )


def scalar_results(params, transport, rng, adaptive):
    """The reference: one scalar estimate per session, shared stream."""
    results = []
    for i in range(len(params["response_budget_ms"])):
        config = SessionConfig(
            response_budget_ms=float(params["response_budget_ms"][i]),
            tolerance=0.9,
            path=PathSpec(
                one_way_latency_ms=float(params["path_latency_ms"][i]),
                sender_share_mbps=float(params["sender_share_mbps"][i]),
                receiver_download_mbps=float(
                    params["receiver_download_mbps"][i])),
            upstream_one_way_ms=float(params["upstream_one_way_ms"][i]),
            processing_ms=float(params["processing_ms"][i]),
            sender_utilization=float(params["sender_utilization"][i]),
            duration_s=60.0,
            adaptive=adaptive,
        )
        results.append(estimate_continuity(config, rng, transport,
                                           n_samples=N_SAMPLES))
    return results


@pytest.mark.parametrize("jitter", [0.15, 0.0])
@pytest.mark.parametrize("adaptive", [True, False])
def test_batch_matches_scalar_bitwise(jitter, adaptive):
    transport = TransportModel(jitter_fraction=jitter)
    params = make_params(n=40, seed=11)
    scalars = scalar_results(params, transport,
                             np.random.default_rng(5), adaptive)
    batch = estimate_continuity_batch(
        **params, rng=np.random.default_rng(5), duration_s=60.0,
        adaptive=adaptive, transport=transport, n_samples=N_SAMPLES)
    assert len(batch) == len(scalars)
    for i, scalar in enumerate(scalars):
        assert batch.result(i) == scalar  # dataclass ==, exact floats
        assert float(batch.continuity[i]) == scalar.continuity
        assert bool(batch.satisfied[i]) == scalar.satisfied


def test_initial_levels_batch_matches_scalar():
    budgets = np.array([25.0, 60.0, 80.0, 90.0, 110.0, 150.0, 500.0])
    expected = [SessionConfig(
        response_budget_ms=float(b), tolerance=0.9,
        path=PathSpec(one_way_latency_ms=10.0, sender_share_mbps=5.0,
                      receiver_download_mbps=10.0),
        upstream_one_way_ms=0.0).initial_level() for b in budgets]
    assert initial_levels_batch(budgets).tolist() == expected


def test_stationary_levels_batch_matches_scalar():
    params = make_params(n=60, seed=3)
    transport = TransportModel()
    initial = initial_levels_batch(params["response_budget_ms"])
    for adaptive in (True, False):
        batch = stationary_levels_batch(
            initial, params["sender_share_mbps"],
            params["receiver_download_mbps"],
            params["sender_utilization"], adaptive, transport)
        expected = [stationary_level(SessionConfig(
            response_budget_ms=float(params["response_budget_ms"][i]),
            tolerance=0.9,
            path=PathSpec(
                one_way_latency_ms=float(params["path_latency_ms"][i]),
                sender_share_mbps=float(params["sender_share_mbps"][i]),
                receiver_download_mbps=float(
                    params["receiver_download_mbps"][i])),
            upstream_one_way_ms=0.0,
            sender_utilization=float(params["sender_utilization"][i]),
            adaptive=adaptive,
        ), transport) for i in range(60)]
        assert batch.tolist() == expected


def test_batch_accepts_precomputed_levels():
    params = make_params(n=10, seed=9)
    transport = TransportModel()
    levels = stationary_levels_batch(
        initial_levels_batch(params["response_budget_ms"]),
        params["sender_share_mbps"], params["receiver_download_mbps"],
        params["sender_utilization"], True, transport)
    a = estimate_continuity_batch(
        **params, rng=np.random.default_rng(1), transport=transport,
        n_samples=N_SAMPLES)
    b = estimate_continuity_batch(
        **params, rng=np.random.default_rng(1), transport=transport,
        levels=levels, n_samples=N_SAMPLES)
    assert a.final_levels.tolist() == b.final_levels.tolist()
    assert a.continuity.tolist() == b.continuity.tolist()


def test_batch_broadcasts_scalars_to_one_session():
    outcome = estimate_continuity_batch(
        90.0, 10.0, 5.0, 10.0, 20.0, 0.0, 0.4,
        rng=np.random.default_rng(0), n_samples=N_SAMPLES)
    assert len(outcome) == 1
    assert 0.0 <= float(outcome.continuity[0]) <= 1.0


def test_batch_validation_errors():
    good = dict(response_budget_ms=90.0, path_latency_ms=10.0,
                sender_share_mbps=5.0, receiver_download_mbps=10.0,
                upstream_one_way_ms=0.0, processing_ms=0.0,
                sender_utilization=0.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        estimate_continuity_batch(**{**good, "response_budget_ms": 0.0},
                                  rng=rng)
    with pytest.raises(ValueError):
        estimate_continuity_batch(**{**good, "sender_share_mbps": 0.0},
                                  rng=rng)
    with pytest.raises(ValueError):
        estimate_continuity_batch(**{**good, "upstream_one_way_ms": -1.0},
                                  rng=rng)
    with pytest.raises(ValueError):
        estimate_continuity_batch(**good, rng=rng, duration_s=0.0)
    with pytest.raises(ValueError):
        estimate_continuity_batch(**good, rng=rng, n_samples=0)
    with pytest.raises(ValueError):
        initial_levels_batch([90.0, -1.0])


# -- generated sessions on the model's edges ---------------------------------
_REQUIREMENTS = [level.latency_requirement_ms for level in QUALITY_LADDER]
_BUDGETS = [float(edge) for req in _REQUIREMENTS
            for edge in (np.nextafter(req, 0.0), req, np.nextafter(req, 300.0))]
_UTILIZATIONS = [0.0, 0.5, 0.85, float(np.nextafter(1.0, 0.0)), 1.0,
                 1.25, 2.0]
#: Link rates whose adapt-down threshold (0.9 x rate at utilisation 0)
#: equals a level's bitrate exactly, and rates below every bitrate.
_LINK_EDGES = [level.bitrate_kbps / 1000.0 / 0.9 for level in QUALITY_LADDER]
_LINKS = st.one_of(st.sampled_from(_LINK_EDGES),
                   st.floats(0.05, 0.29), st.floats(0.05, 30.0))
_SESSION = st.fixed_dictionaries(dict(
    response_budget_ms=st.one_of(st.sampled_from(_BUDGETS),
                                 st.floats(1.0, 200.0)),
    path_latency_ms=st.floats(0.0, 60.0),
    sender_share_mbps=_LINKS,
    receiver_download_mbps=_LINKS,
    upstream_one_way_ms=st.floats(0.0, 30.0),
    processing_ms=st.sampled_from([0.0, 5.0, 20.0]),
    sender_utilization=st.one_of(st.sampled_from(_UTILIZATIONS),
                                 st.floats(0.0, 2.5)),
))
_FIELDS = ("final_levels", "packets_total", "packets_on_time",
           "stall_events", "total_stall_s", "mean_response_latency_ms",
           "mean_bitrate_kbps", "adjustments")


def _oracle_fields(result):
    """One oracle result as the batch outcome's fields, in order."""
    stats = result.stats
    return (result.final_level, stats.packets_total, stats.packets_on_time,
            stats.stall_events, stats.total_stall_s,
            result.mean_response_latency_ms, result.mean_bitrate_kbps,
            result.adjustments)


_EDGE = dict(response_budget_ms=110.0, path_latency_ms=10.0,
             sender_share_mbps=2.0, receiver_download_mbps=30.0,
             upstream_one_way_ms=0.0, processing_ms=0.0,
             sender_utilization=0.0)


@given(sessions=st.lists(_SESSION, min_size=1, max_size=12),
       adaptive=st.booleans(), jitter=st.sampled_from([0.0, 0.3]),
       seed=st.integers(0, 2**32 - 1))
@example(sessions=[_EDGE], adaptive=True, jitter=0.0, seed=0)
@settings(max_examples=300, deadline=None)
def test_generated_batch_equals_oracle(sessions, adaptive, jitter, seed):
    transport = TransportModel(jitter_fraction=jitter)
    params = {key: np.array([session[key] for session in sessions])
              for key in sessions[0]}
    oracle_rng = np.random.default_rng(seed)
    expected = [_oracle_fields(result) for result in scalar_results(
        params, transport, oracle_rng, adaptive)]
    batch_rng = np.random.default_rng(seed)
    batch = estimate_continuity_batch(
        **params, rng=batch_rng, duration_s=60.0, adaptive=adaptive,
        transport=transport, n_samples=N_SAMPLES)
    for index, name in enumerate(_FIELDS):
        assert getattr(batch, name).tolist() == [
            fields[index] for fields in expected], name
    assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state
