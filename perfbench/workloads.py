"""The benchmark's workloads: sizes, the seeded outage scenario, predictions.

Every workload runs the ``peersim`` testbed preset at one population and
day count.  Two model properties set the size.  The social game choice
makes whole days swing between game mixes (one day's cloud bandwidth can
be twice the next day's), so bandwidth and continuity settle only over
many measured days; and each seed draws its own geography, which moves
join latency.  A run therefore pools several sub-runs, each a 1,000
player population of its own over 28 measured days (``run.SUBRUNS``).

This module only builds plain data (JSON-able dicts); it imports nothing
from the simulator, so the driver can build every input from the seed
before any worker process starts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Population, run length and warm-up of one sub-run, and the sharded
#: workload's checkpoint cadence.  Every checkpoint carries all sessions
#: measured so far, so daily snapshots write O(days^2) bytes (at 56 days
#: 128 MB, 70 % of the wall); every third day keeps persist near a fifth
#: of the wall and puts a snapshot on day ``days - RESUME_DAYS - 1``,
#: where the resume starts.
SIZE = {"players": 1000, "days": 35, "warmup": 7, "checkpoint_every": 3}
#: The tiny size ``run.py --self-test`` uses to prove the code path.
SELF_TEST_SIZE = {"players": 200, "days": 5, "warmup": 2,
                  "checkpoint_every": 3}

#: Worker processes of the sharded workload and the days it resumes.
SHARDS = 2
RESUME_DAYS = 2
#: Datacenters of the peersim preset (one shard partition each).
PEERSIM_DATACENTERS = 5


@dataclass(frozen=True)
class Workload:
    """One named workload: what it runs, why, and what it should show."""

    name: str
    variant: str
    sharded: bool
    why: str
    #: Layer predictions checked against every traced run: each entry is
    #: ``(kind, layers, detail)`` — see :func:`layers.check_predictions`.
    predictions: tuple = ()


WORKLOADS = {
    "paper-fog": Workload(
        name="paper-fog", variant="CloudFog/A", sharded=False,
        why=("CloudFog/A, all four strategies, no faults, one process: "
             "the paper's system in steady state; arrivals "
             "(join -> selection) should dominate the traced wall"),
        predictions=(
            ("dominant", ("sweep.arrivals",),
             "arrivals (join + selection) are the largest top-level "
             "stage"),
            ("active", ("lifecycle.join", "selection"),
             "joins run supernode selection"),
            ("idle", ("faults.apply", "persist.save", "persist.resume",
                      "shard.build_partitions", "shard.merge",
                      "lifecycle.migrate"),
             "no faults, checkpoints or shards on this workload"),
        )),
    "cloud-only": Workload(
        name="cloud-only", variant="Cloud", sharded=False,
        why=("the Cloud baseline on the same population: selection, "
             "reputation and provisioning do no work, scoring and day "
             "plans dominate; a join-path change must read no change"),
        predictions=(
            ("dominant", ("scoring", "sweep.plans", "sweep.games"),
             "scoring plus day plans and game choice outweigh arrivals"),
            ("idle", ("selection", "reputation.refresh",
                      "provisioning.deploy", "faults.apply",
                      "persist.save", "persist.resume",
                      "shard.build_partitions", "shard.merge",
                      "lifecycle.migrate"),
             "no fog, faults, checkpoints or shards on this workload"),
        )),
    "outage-sharded": Workload(
        name="outage-sharded", variant="CloudFog/A", sharded=True,
        why=("CloudFog/A under a seeded outage scenario, 2 shard "
             "workers, periodic checkpoints, resumed final days: the only "
             "workload where faults, migration, persist and shards work"),
        predictions=(
            ("active", ("faults.apply", "lifecycle.migrate",
                        "persist.save", "persist.resume",
                        "shard.build_partitions", "shard.merge",
                        "sweep.scenario"),
             "faults, migrations, checkpoints, resume and the shard "
             "partition/merge all do work"),
        )),
}


def outage_scenario(seed: int, players: int, days: int,
                    warmup: int) -> dict:
    """The seeded scenario document of the ``outage-sharded`` workload.

    Built only from the seed and the workload size: every day carries a
    crash wave, a regional outage, a warned preemption and a link
    degradation; every few days a datacenter goes dark; about half of
    the days get an evening-peak flash crowd; healing is on, and a fifth
    of the selection rounds a migration makes time out and retry.  Event
    subcycles start at 2, so subcycle 1 of every day is fault-free (the
    run ledger reads its day-start failure counts there).

    The configurator applies per shard partition (one per datacenter
    region), so daily participation and crowd sizes are per region:
    sized from the mean region population, they leave idle players in
    the larger regions for flash crowds to draw from.
    """
    rng = random.Random(f"perfbench-outage-{seed}")
    per_region = max(10, players // PEERSIM_DATACENTERS)
    supernodes_per_region = max(1, round(0.06 * per_region))
    daily = max(5, round(0.75 * per_region))
    events = []
    flash_crowds = []
    next_dc_outage = rng.randint(2, 4)
    for day in range(days):
        events.append({
            "kind": "crash", "day": day, "subcycle": rng.randint(10, 22),
            "count": rng.randint(1, max(1, supernodes_per_region // 4))})
        events.append({
            "kind": "regional_outage", "day": day,
            "subcycle": rng.randint(12, 23),
            "datacenter": rng.randrange(PEERSIM_DATACENTERS),
            "radius_km": float(rng.randint(30, 90))})
        events.append({
            "kind": "preempt", "day": day, "subcycle": rng.randint(8, 21),
            "count": rng.randint(1, 2),
            "warning_subcycles": rng.randint(1, 2)})
        events.append({
            "kind": "degrade_link", "day": day,
            "subcycle": rng.randint(2, 23),
            "extra_ms": float(rng.randint(5, 30))})
        if day == next_dc_outage:
            events.append({
                "kind": "dc_outage", "day": day,
                "subcycle": rng.randint(16, 22),
                "datacenter": rng.randrange(PEERSIM_DATACENTERS)})
            next_dc_outage += rng.randint(3, 5)
        if rng.random() < 0.5:
            flash_crowds.append({
                "day": day, "subcycle": rng.randint(20, 22),
                "players": rng.randint(max(1, daily // 5),
                                       max(1, daily // 3)),
                "duration_hours": float(rng.choice((2, 3)))})
    return {
        "version": 1,
        "name": f"perfbench-outage-{seed}",
        "description": "Seeded daily outages with healing, evening "
                       "flash crowds and warned preemptions.",
        "seed": seed,
        "population": {"players": players, "daily_participants": daily},
        "workload": {"flash_crowds": flash_crowds},
        "infrastructure": {"testbed": "peersim",
                           "scale": players / 100_000,
                           "variant": "CloudFog/A"},
        "faults": {
            "events": events,
            # Churn turbulence: fault-driven selection rounds time out at
            # this rate, so migrations walk the backoff retry ladder.
            "transient_refusal_prob": 0.2,
            "healing": {"delay_subcycles": 2, "replacement_share": 1.0},
        },
        "schedule": {"days": days, "warmup_days": warmup},
    }


def build_spec(name: str, seed: int, size: dict | None = None) -> dict:
    """The full JSON input of one repetition of workload ``name``."""
    workload = WORKLOADS[name]
    size = size or SIZE
    spec = {"workload": name, "variant": workload.variant, "seed": seed,
            "players": size["players"], "days": size["days"],
            "warmup": size["warmup"], "sharded": workload.sharded,
            "scenario": None, "shards": 1, "resume_days": 0,
            "checkpoint_every": size["checkpoint_every"]}
    if workload.sharded:
        spec["scenario"] = outage_scenario(seed, size["players"],
                                           size["days"], size["warmup"])
        spec["shards"] = SHARDS
        spec["resume_days"] = RESUME_DAYS
        every = size["checkpoint_every"]
        if (size["days"] - RESUME_DAYS) % every or every <= RESUME_DAYS:
            raise ValueError("the last checkpoint must land on day "
                             "days - RESUME_DAYS - 1")
    return spec
