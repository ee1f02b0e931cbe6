"""Telemetry survives checkpoint/resume: the resumed run's time series
and event log match the uninterrupted run's, and the simulation digests
stay bit-identical with the five-pillar runtime live.

The ``checkpoint_load`` seam event (and span ids, which depend on how
many spans the process opened before the run) are the only tolerated
differences — everything else must be equal.
"""

import pytest

from repro import obs
from repro.core import CloudFogSystem
from repro.core.config import cloudfog_advanced
from repro.persist import Checkpointer, read_checkpoint, resume_run

from ..faults.regen_golden import CHAOS_PLAN
from ..helpers.events import held_events
from ..helpers.golden import fault_summary_digest, run_result_digest

CHAOS = cloudfog_advanced(num_players=120, num_supernodes=8,
                          seed=3).with_(fault_plan=CHAOS_PLAN)
DAYS = 3


@pytest.fixture(autouse=True)
def _restore_null_observability():
    yield
    obs.disable()


#: The checkpoint seam's own events: the resumed run stops snapshotting
#: (no checkpointer is passed on resume) and gains one load marker, so
#: these are excluded from the equality check below.
_SEAM_KINDS = {"checkpoint_save", "checkpoint_load"}


def _event_essence(log):
    """Events minus the tolerated differences (the seam markers; seq
    shifts after the inserted load; span ids are process-history-bound)."""
    return [(e.kind, e.day, e.subcycle, tuple(sorted(e.attrs.items())))
            for e in held_events(log) if e.kind not in _SEAM_KINDS]


def test_resumed_telemetry_matches_uninterrupted(tmp_path):
    obs.enable()
    hook = Checkpointer(tmp_path, every=1)
    full = CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    full_digests = (run_result_digest(full), fault_summary_digest(full.faults))
    full_series = obs.get_timeseries().as_payload()
    full_events = _event_essence(obs.get_events())
    assert any(kind == "fault_injected" for kind, *_ in full_events)
    saves = held_events(obs.get_events(), "checkpoint_save")
    assert [event.day for event in saves] == list(range(DAYS))

    for k in range(DAYS - 1):
        obs.enable()  # fresh runtime, as a restarted process would have
        resumed = resume_run(hook.path_for(k))
        assert (run_result_digest(resumed),
                fault_summary_digest(resumed.faults)) == full_digests
        assert obs.get_timeseries().as_payload() == full_series, \
            f"time series diverged resuming after day {k}"
        assert _event_essence(obs.get_events()) == full_events, \
            f"event log diverged resuming after day {k}"
        loads = held_events(obs.get_events(), "checkpoint_load")
        assert len(loads) == 1 and loads[0].day == k


def test_checkpoint_day_zero_carries_day_zero_telemetry(tmp_path):
    obs.enable()
    hook = Checkpointer(tmp_path, every=1)
    CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.path_for(0))
    telemetry = payload["telemetry"]
    days = telemetry["timeseries"]["days"]
    assert len(days) == 1 and days[0][0]["day"] == 0
    kinds = [event["kind"] for event in telemetry["events"]["events"]]
    assert kinds[-1] == "checkpoint_save"  # the save emits before capture


def test_disabled_runs_write_no_telemetry_key(tmp_path):
    assert not obs.enabled()
    hook = Checkpointer(tmp_path, every=1)
    CloudFogSystem(CHAOS).run(days=2, on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.path_for(0))
    assert "telemetry" not in payload


def test_metrics_only_enablement_writes_no_telemetry_key(tmp_path):
    obs.enable(timeseries=False, events=False)
    hook = Checkpointer(tmp_path, every=1)
    CloudFogSystem(CHAOS).run(days=2, on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.path_for(0))
    assert "telemetry" not in payload


def test_resume_with_observability_off_ignores_telemetry(tmp_path):
    obs.enable()
    hook = Checkpointer(tmp_path, every=1)
    full = CloudFogSystem(CHAOS).run(days=DAYS, on_day_end=hook.on_day_end)
    expected = run_result_digest(full)
    obs.disable()
    resumed = resume_run(hook.path_for(0))
    assert run_result_digest(resumed) == expected
    assert obs.get_timeseries() is obs.NULL_TIMESERIES  # still null
