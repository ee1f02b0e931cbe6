"""Generated workloads round-trip through scenario documents.

A :class:`Scenario` carrying any valid
:class:`~repro.workload.overrides.WorkloadOverrides` value (the
strategy of ``tests/helpers/workloads.py``: all nine fields, up to two
flash crowds), plus the two section keys that are not workload fields,
writes a document that parses back to the same scenario — also through
JSON text — and compiles to a config whose ``workload`` is that value.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import Scenario
from repro.scenarios.compile import compile_scenario

from ..helpers.workloads import workloads

scenarios = st.builds(
    Scenario, name=st.just("generated"),
    players=st.one_of(st.none(), st.integers(60, 400)),
    workload=workloads,
    rate_adaptation=st.one_of(st.none(), st.booleans()))


@given(scenario=scenarios)
@settings(max_examples=80, deadline=None)
def test_document_round_trip_is_exact(scenario):
    document = scenario.to_dict()
    assert Scenario.from_dict(document) == scenario
    assert Scenario.from_dict(json.loads(json.dumps(document))) == scenario


@given(scenario=scenarios)
@settings(max_examples=30, deadline=None)
def test_compiled_config_carries_the_workload(scenario):
    assert compile_scenario(scenario).config.workload == scenario.workload
