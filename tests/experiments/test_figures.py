"""Smoke tests for the figure-reproduction functions (tiny scales).

The benchmark harness runs the full-scale versions and asserts the
paper's shapes; these tests only pin structure and basic sanity so the
unit suite stays fast.
"""

import pytest

from repro.experiments import figures
from repro.experiments.testbeds import peersim


@pytest.fixture(scope="module")
def tiny():
    return peersim(0.002)  # 200 players


def test_fig4a_structure(tiny):
    table = figures.fig4a_coverage_vs_datacenters(tiny, counts=(1, 5))
    assert table.column("#datacenters") == [1, 5]
    for col in ("30ms", "110ms"):
        assert all(0 <= v <= 1 for v in table.column(col))


def test_fig4b_structure(tiny):
    table = figures.fig4b_coverage_vs_supernodes(tiny, counts=(5, 15))
    assert table.column("#supernodes") == [5, 15]


def test_fig6_structure(tiny):
    table = figures.fig6_bandwidth(player_counts=(150,), testbed=tiny,
                                   days=2)
    assert table.column("players") == [150]
    assert all(v >= 0 for v in table.column("Cloud"))
    assert "Mbit/s" in table.notes[0]


def test_fig9_structure(tiny):
    table = figures.fig9_setup_latencies(player_counts=(150,), testbed=tiny)
    assert len(table.rows) == 1
    assert table.column("player_join_ms")[0] > 0
    assert table.column("assignment_s")[0] > 0
    assert table.column("assignment_random_s")[0] > 0


def test_fig11_structure():
    table = figures.fig11_adaptation(loads=(5,), num_players=150, days=2)
    assert table.column("players_per_supernode") == [5]
    for col in ("CloudFog/B", "CloudFog-adapt"):
        assert 0 <= table.column(col)[0] <= 1


def test_fig12_structure():
    table = figures.fig12_server_assignment(server_counts=(5,),
                                            num_players=150, days=1)
    assert len(table.rows) == 1
    assert table.column("server_ms_w/")[0] >= 0


def test_fig16a_structure():
    table = figures.fig16a_supernode_economics(hours=(4, 24))
    assert table.column("hours_per_day") == [4, 24]
    rewards = table.column("rewards_usd")
    assert rewards[1] == pytest.approx(6 * rewards[0])


def test_fig16b_structure():
    table = figures.fig16b_provider_savings(hours=(10,))
    assert table.column("renting_fees_usd")[0] == pytest.approx(26.0)
