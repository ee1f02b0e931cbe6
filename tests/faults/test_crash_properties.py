"""Generated crash plans never corrupt supernode bookkeeping.

Hypothesis draws seeded crash schedules (day, subcycle, count) with
and without churn turbulence (``transient_refusal_prob``) and runs
each at a tiny size.  A scenario stage asserts the bookkeeping after
every subcycle's faults (``tests/helpers/invariants.py``), and every
run must end with a conserved fault ledger.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloudFogSystem, cloudfog_advanced, cloudfog_basic
from repro.faults.plan import FaultEvent, FaultPlan

from ..helpers.invariants import bookkeeping_stage

DAYS = 2
HOURS = 24

crash_events = st.builds(
    lambda day, subcycle, count: FaultEvent(
        day=day, subcycle=subcycle, kind="crash", count=count),
    st.integers(min_value=0, max_value=DAYS - 1),
    st.integers(min_value=1, max_value=HOURS),
    st.integers(min_value=1, max_value=10))

crash_plans = st.builds(
    lambda events, refusal: FaultPlan(events=tuple(events),
                                      transient_refusal_prob=refusal),
    st.lists(crash_events, min_size=1, max_size=6),
    st.one_of(st.just(0.0), st.floats(min_value=0.05, max_value=0.9)))


@given(plan=crash_plans, seed=st.integers(min_value=0, max_value=7),
       advanced=st.booleans())
@settings(max_examples=30, deadline=None)
def test_property_crash_plans_keep_bookkeeping_consistent(plan, seed,
                                                          advanced):
    build = cloudfog_advanced if advanced else cloudfog_basic
    system = CloudFogSystem(build(num_players=80, num_supernodes=8,
                                  seed=seed, fault_plan=plan))
    checked: list = []
    system.state.scenario_stages = (bookkeeping_stage(checked),)
    result = system.run(days=DAYS)
    assert len(checked) == DAYS * HOURS
    assert result.faults.events_applied == len(plan)
    assert result.faults.conserved()
