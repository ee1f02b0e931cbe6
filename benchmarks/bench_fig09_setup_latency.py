"""Fig. 9: system setup and churn latencies.

Paper shapes: server-assignment latency (the §3.4 social pass) grows
slowly with players; supernode-join and player-join latencies stay low
and roughly constant; migration completes in ~0.8 s without restarting
the game.
"""

import math

from repro.experiments import fig9_setup_latencies


def test_fig9_latencies(benchmark, emit):
    table = benchmark.pedantic(
        lambda: fig9_setup_latencies(player_counts=(400, 800, 1600)),
        rounds=1, iterations=1)
    emit(table, "fig09_setup_latencies.txt")

    joins = table.column("player_join_ms")
    sn_joins = table.column("sn_join_ms")
    migrations = table.column("migration_ms")
    assignments = table.column("assignment_s")

    # Player joins stay sub-second and roughly constant across scale.
    assert all(j < 1000.0 for j in joins)
    assert max(joins) < 2.0 * min(joins)
    # Supernode joins only involve one cloud round trip.
    assert all(j < 500.0 for j in sn_joins)
    # Migration ~0.8 s: detection-dominated, sub-2 s.
    assert all(not math.isnan(m) and 400.0 < m < 2000.0
               for m in migrations)
    # Assignment runs weekly; seconds at most at these scales.
    assert all(a < 30.0 for a in assignments)
    # ``assignment_s`` times the §3.4 clustering, which must cost more
    # than the random baseline pass at every size.
    randoms = table.column("assignment_random_s")
    assert all(social > rand for social, rand in zip(assignments, randoms))
