"""Generated workloads survive serialization and checkpoint/resume.

Hypothesis draws :class:`~repro.workload.overrides.WorkloadOverrides`
values over every field — participation (None included), the weekly
shape, the duration and start-time splits, a game mix over catalogue
names, timezone offsets, a quality ceiling, a downlink cap below and
above the stream bitrates, and up to two flash crowds — and runs each
on a small CloudFog/A config.  The config round-trips through
``config_to_dict``, and a run checkpointed every day and resumed from
its day-0 file reproduces the uninterrupted result digest: the config
is the only home of the workload, so nothing of it can be lost.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CloudFogSystem, cloudfog_advanced
from repro.persist import (Checkpointer, canonical_json, config_from_dict,
                           config_to_dict, resume_run)
from repro.sim.cycles import Schedule

from ..helpers.golden import run_result_digest
from ..helpers.workloads import DAYS, workloads

configs = st.builds(
    lambda players, seed, workload: cloudfog_advanced(
        num_players=players, num_supernodes=6, seed=seed,
        schedule=Schedule(days=DAYS, warmup_days=1), workload=workload),
    players=st.integers(60, 80), seed=st.integers(0, 7),
    workload=workloads)


@given(config=configs)
@settings(max_examples=60, deadline=None)
def test_config_round_trips_with_its_workload(config):
    assert config_from_dict(config_to_dict(config)) == config
    decoded = json.loads(canonical_json(config_to_dict(config)))
    assert config_from_dict(decoded) == config


@given(config=configs)
@settings(max_examples=12, deadline=None)
def test_resume_from_day_zero_reproduces_the_run(config, tmp_path_factory):
    expected = run_result_digest(CloudFogSystem(config).run(days=DAYS))
    hook = Checkpointer(tmp_path_factory.mktemp("ckpt"), every=1)
    checkpointed = CloudFogSystem(config).run(days=DAYS,
                                              on_day_end=hook.on_day_end)
    assert run_result_digest(checkpointed) == expected
    assert run_result_digest(resume_run(hook.path_for(0))) == expected
