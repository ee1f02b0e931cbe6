"""Join ledger: counts the joins a run attempts, day by day, per partition.

The program reports what its sessions achieved, not how many joins it
was asked to make, so the benchmark counts those itself.  The ledger is
a sweep stage installed through the ordinary ``configure`` seam, after
any scenario stages: ``stage_scenario`` runs it right before arrivals,
when ``ctx.starts`` holds exactly the plans arrivals will join this
subcycle (flash-crowd joiners included).  It draws no random numbers and
changes no state, so the run's results are those of the bare workload.

Sharded runs execute partitions in worker processes, so the ledger
writes one JSON line per finished day to ``ledger-<partition seed>.jsonl``
in its directory instead of keeping the counts in memory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


def failed_total(faults) -> int:
    """Sessions a run lost: joins shed, sessions dropped or shed."""
    return faults.joins_shed + faults.dropped + faults.shed


@dataclass(frozen=True)
class JoinLedger:
    """Sweep stage recording each day's attempted joins and failure base.

    Each line holds the partition seed, the day, whether it was
    measured, the joins attempted and ``failed_before``: the run's
    failure total at the day's first subcycle (the outage scenario
    schedules no fault there, so it equals the total at day start).
    """

    directory: str
    tallies: dict = field(default_factory=dict, compare=False)

    def __call__(self, state, ctx) -> None:
        key = (state.config.seed, ctx.day)
        tally = self.tallies.get(key)
        if tally is None:
            tally = self.tallies[key] = {
                "seed": state.config.seed, "day": ctx.day,
                "measuring": bool(ctx.measuring), "attempted": 0,
                "failed_before": failed_total(ctx.result.faults)}
        tally["attempted"] += len(ctx.starts.get(ctx.subcycle, ()))
        if ctx.subcycle == ctx.hours:
            path = Path(self.directory) / f"ledger-{state.config.seed}.jsonl"
            with path.open("a") as handle:
                handle.write(json.dumps(tally) + "\n")


@dataclass(frozen=True)
class WithLedger:
    """``configure`` hook: apply the scenario's hook, then the ledger.

    Picklable, so sharded worker processes can re-apply it to every
    partition state they build.
    """

    ledger: JoinLedger
    configure: object = None

    def __call__(self, state) -> None:
        if self.configure is not None:
            self.configure(state)
        state.scenario_stages = tuple(state.scenario_stages) + (
            self.ledger,)


def read_ledger(directory) -> list[dict]:
    """Every day line the ledgers in ``directory`` wrote."""
    rows = []
    for path in sorted(Path(directory).glob("ledger-*.jsonl")):
        rows.extend(json.loads(line)
                    for line in path.read_text().splitlines() if line)
    return rows


def failed_before(rows: list[dict], day: int) -> int:
    """Summed day-start failure totals of every partition on ``day``."""
    return sum(row["failed_before"] for row in rows if row["day"] == day)
