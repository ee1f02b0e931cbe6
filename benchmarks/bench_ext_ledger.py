"""Extension: Fig. 16(a) from simulation instead of arithmetic.

The paper's Fig. 16(a) is an analytic model of one supernode's rewards,
costs and profits.  With the credit ledger wired into the day loop we
can re-derive the same picture from an actual CloudFog run: contributors
accrue bandwidth credits and a prorated sign-up bonus, pay electricity,
and end up clearly profitable — the incentive claim, measured.
"""

import numpy as np

from repro.core import CloudFogSystem, cloudfog_basic
from repro.metrics.tables import ResultTable


def run_extension(num_players: int = 400, num_supernodes: int = 25,
                  days: int = 5, seed: int = 2):
    system = CloudFogSystem(cloudfog_basic(
        num_players=num_players, num_supernodes=num_supernodes, seed=seed))
    system.run(days=days)
    accounts = list(system.state.credits.accounts.values())
    table = ResultTable(
        title=f"Extension: simulated contributor economics over {days} days",
        columns=["quantity", "value"])
    credits = np.array([a.credits_usd for a in accounts])
    costs = np.array([a.costs_usd for a in accounts])
    gb = np.array([a.gb_served for a in accounts])
    table.add_row("contributors", len(accounts))
    table.add_row("mean credits (usd)", float(credits.mean()))
    table.add_row("mean costs (usd)", float(costs.mean()))
    table.add_row("mean profit (usd)", float((credits - costs).mean()))
    table.add_row("mean GB served", float(gb.mean()))
    table.add_row("profitable share", system.state.credits.profitable_share())
    table.add_row("provider outlay (usd)",
                  system.state.credits.provider_outlay_usd())
    return table


def test_ext_ledger_contributors_profit(benchmark, emit):
    table = benchmark.pedantic(run_extension, rounds=1, iterations=1)
    emit(table, "ext_ledger.txt")
    values = dict(zip(table.column("quantity"), table.column("value")))
    # §4.4's claim, from simulation: costs are trivial vs rewards and
    # (nearly) every contributor profits.
    assert values["mean costs (usd)"] < 0.25 * values["mean credits (usd)"]
    assert values["profitable share"] > 0.9
    assert values["mean profit (usd)"] > 0.0
    assert values["provider outlay (usd)"] > 0.0
