"""Every built-in scenario resumes to the uninterrupted result.

A single-process run checkpoints every day; resuming from its day-0
file must reproduce the uninterrupted run's result digest.  The flash
crowds, timezone offsets, quality ceiling and downlink cap all live in
the config's workload, which the checkpoint carries.
"""

import pytest

from repro.experiments.runner import resume_config, run_config
from repro.persist import Checkpointer
from repro.scenarios import BUILTIN_SCENARIOS, get_scenario
from repro.scenarios.compile import compile_scenario

from ..helpers.golden import run_result_digest


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenario_resumes_bit_identically(name, tmp_path):
    compiled = compile_scenario(get_scenario(name))
    config, days = compiled.config, compiled.days
    expected = run_result_digest(run_config(config, days))
    checkpointed = run_config(config, days, checkpoint_dir=tmp_path)
    assert run_result_digest(checkpointed) == expected
    first = Checkpointer(tmp_path).path_for(0)
    assert run_result_digest(resume_config(first)) == expected
