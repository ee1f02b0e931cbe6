"""Telemetry pin: a faulted run's day samples and metric dump, bit for bit.

The time-series store folds each day's session log into per-region
``DaySample`` rows with Python ``sum`` in log order, and the sweep
counts sessions per connection kind.  Reading the log's columns instead
of one record object per session must not move a bit: the digests below
were taken from the per-record code on the same run.
"""

import hashlib
import json

from repro import obs
from repro.core import CloudFogSystem

from ..faults.regen_golden import CHAOS_SCENARIOS

SAMPLES_SHA256 = ("5845f92a0fc12ca766ade155caa3816d"
                  "6aa8f8a1a03223ca7459b6d4411899f8")
METRICS_SHA256 = ("1fe0c3a9fd5fa56c675725b9e4ce18dd"
                  "02c0967f53330d1a1af9c374156fffbc")


def _sha256(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode()).hexdigest()


def telemetry_digests() -> tuple[str, str]:
    """Digests of the day samples and metric dump of a 3-day
    ``chaos_advanced`` run with observability on."""
    obs.enable()
    CloudFogSystem(CHAOS_SCENARIOS["chaos_advanced"]).run(days=3)
    return (_sha256(obs.get_timeseries().as_payload()),
            _sha256(obs.get_registry().as_dict()))


def test_chaos_run_telemetry_is_pinned():
    assert telemetry_digests() == (SAMPLES_SHA256, METRICS_SHA256)
