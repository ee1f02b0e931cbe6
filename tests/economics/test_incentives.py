"""Tests for supernode incentives (Eq. 1, Fig. 16a)."""

import pytest

from repro.economics.incentives import (
    IncentiveModel,
    SupernodeEconomics,
    daily_economics,
)


def test_hourly_running_cost_matches_paper():
    """§4.4: 0.25 kW x 10.8 c/kWh = $0.027/hour."""
    model = IncentiveModel()
    assert model.hourly_running_cost == pytest.approx(0.027)


def test_gb_per_hour_conversion():
    model = IncentiveModel()
    # 10 Mbit/s fully utilised for an hour = 4.5 GB.
    assert model.gb_per_hour(10.0, 1.0) == pytest.approx(4.5)
    assert model.gb_per_hour(10.0, 0.5) == pytest.approx(2.25)
    assert model.gb_per_hour(0.0, 1.0) == 0.0


def test_hourly_reward_is_cs_cj_uj():
    model = IncentiveModel(reward_per_gb=1.0)
    assert model.hourly_reward(10.0, 0.8) == pytest.approx(3.6)


def test_eq1_profit():
    model = IncentiveModel()
    profit = daily_economics(model, 10.0, 0.8, hours_per_day=1).profit_usd
    assert profit == pytest.approx(3.6 - 0.027)


def test_costs_are_trivial_compared_to_rewards():
    """§4.4's conclusion: costs are trivial next to the rewards."""
    model = IncentiveModel()
    economics = daily_economics(model, upload_mbps=10.0, utilization=0.6,
                                hours_per_day=12)
    assert economics.costs_usd < 0.05 * economics.rewards_usd
    assert economics.profit_usd > 0


def test_profits_grow_with_hours():
    """Fig. 16(a): more running hours, more profit."""
    model = IncentiveModel()
    profits = [daily_economics(model, 10.0, 0.6, h).profit_usd
               for h in (4, 8, 16, 24)]
    assert profits == sorted(profits)
    assert profits[0] > 0


def test_idle_supernode_loses_electricity_money():
    model = IncentiveModel()
    economics = daily_economics(model, upload_mbps=10.0, utilization=0.0,
                                hours_per_day=24)
    assert economics.rewards_usd == 0.0
    assert economics.profit_usd < 0


def test_validation():
    with pytest.raises(ValueError):
        IncentiveModel(reward_per_gb=-1.0)
    with pytest.raises(ValueError):
        IncentiveModel(server_power_kw=0.0)
    model = IncentiveModel()
    with pytest.raises(ValueError):
        model.gb_per_hour(-1.0, 0.5)
    with pytest.raises(ValueError):
        model.gb_per_hour(1.0, 1.5)
    with pytest.raises(ValueError):
        daily_economics(model, 1.0, 0.5, hours_per_day=25)


def test_supernode_economics_dataclass():
    economics = SupernodeEconomics(rewards_usd=10.0, costs_usd=3.0)
    assert economics.profit_usd == 7.0
    assert economics.profit_usd > 0
    assert SupernodeEconomics(1.0, 2.0).profit_usd == -1.0
