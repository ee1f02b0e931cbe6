"""Compare :meth:`~repro.obs.MetricsRegistry.as_dict` dumps in tests."""

import pytest


def assert_dumps_match(got, expected):
    """Everything must match exactly except histogram sums, which may
    differ in the last ulp: a merge adds per-worker partial sums,
    associating the float additions differently than one sequential
    accumulation."""
    assert got.keys() == expected.keys()
    for name in expected:
        for have, want in zip(got[name], expected[name], strict=True):
            if want["kind"] == "histogram":
                assert have["sum"] == pytest.approx(want["sum"])
                have, want = (dict(have, sum=None), dict(want, sum=None))
            assert have == want, f"metric {name} diverged across the pool"
