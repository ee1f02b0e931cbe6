"""Checkpoints written while the execution-mode toggles still existed.

Older state payloads carry ``use_batch_scoring`` and
``use_batch_assignment``.  Replay-exact files (assignment ``false``)
must keep resuming bit-identically — whatever the scoring flag says,
both scorers were bit-identical — while a run checkpointed in the
removed batch-assignment join mode must be refused, never silently
continued on the replay-exact path.
"""

import pytest

from repro.core import CloudFogSystem
from repro.core.state import SimState
from repro.persist import (
    Checkpointer,
    CheckpointError,
    CheckpointModeError,
    capture_state,
    read_checkpoint,
    resume_run,
    write_checkpoint,
)

from ..helpers.golden import fault_summary_digest, run_result_digest
from .test_checkpoint import BASELINE, CHAOS, DAYS


def _legacy_checkpoint(tmp_path, config, **legacy):
    """Run ``config`` with day-end checkpoints; rewrite day 0's state
    payload with the ``legacy`` keys.  Returns the uninterrupted run's
    result and the rewritten checkpoint's path."""
    hook = Checkpointer(tmp_path / "run", every=1)
    result = CloudFogSystem(config).run(days=DAYS,
                                        on_day_end=hook.on_day_end)
    payload = read_checkpoint(hook.path_for(0))
    payload["state"].update(legacy)
    path = write_checkpoint(tmp_path / "legacy.json", payload)
    return result, path


def test_capture_state_writes_no_mode_toggles():
    payload = capture_state(SimState(BASELINE))
    assert "use_batch_scoring" not in payload
    assert "use_batch_assignment" not in payload


@pytest.mark.parametrize("scoring", [False, True])
@pytest.mark.parametrize("config", [BASELINE, CHAOS],
                         ids=["baseline", "chaos"])
def test_replay_mode_legacy_keys_resume_bit_identically(tmp_path, config,
                                                        scoring):
    expected, path = _legacy_checkpoint(
        tmp_path, config, use_batch_scoring=scoring,
        use_batch_assignment=False)
    resumed = resume_run(path)
    assert run_result_digest(resumed) == run_result_digest(expected)
    assert (fault_summary_digest(resumed.faults)
            == fault_summary_digest(expected.faults))


def test_batch_assignment_checkpoint_is_refused(tmp_path):
    _, path = _legacy_checkpoint(tmp_path, BASELINE,
                                 use_batch_scoring=True,
                                 use_batch_assignment=True)
    with pytest.raises(CheckpointModeError, match="use_batch_assignment"):
        resume_run(path)
    assert issubclass(CheckpointModeError, CheckpointError)
