"""Tests for the contributor credit ledger."""

import pytest

from repro.economics.incentives import IncentiveModel
from repro.economics.ledger import CreditLedger, SupernodeAccount


def test_account_lazily_created():
    ledger = CreditLedger()
    account = ledger.account(7)
    assert account.supernode_id == 7
    assert ledger.account(7) is account


def test_record_day_credits_bandwidth_and_bonus():
    model = IncentiveModel(reward_per_gb=1.0, monthly_signup_bonus=30.0)
    ledger = CreditLedger(incentives=model, days_per_month=30)
    ledger.record_day(1, gb_served=4.5, hours_online=24.0)
    account = ledger.account(1)
    # 4.5 GB x $1 + $30/30 bonus = $5.50.
    assert account.credits_usd == pytest.approx(5.5)
    assert account.costs_usd == pytest.approx(model.hourly_running_cost * 24)
    assert account.gb_served == 4.5
    assert account.days_enrolled == 1


def test_idle_enrolled_machine_still_gets_the_bonus():
    """§3.1.1: idle supernodes 'can still receive a small amount of
    monthly sign up bonus'."""
    ledger = CreditLedger()
    ledger.record_day(1, gb_served=0.0, hours_online=24.0)
    assert ledger.account(1).credits_usd > 0.0


def test_profit_is_eq1_over_the_enrolment():
    ledger = CreditLedger()
    for _ in range(10):
        ledger.record_day(1, gb_served=10.0, hours_online=24.0)
    account = ledger.account(1)
    assert account.profit_usd == pytest.approx(
        account.credits_usd - account.costs_usd)
    assert account.profit_usd > 0  # serving traffic is lucrative


def test_validation():
    ledger = CreditLedger()
    with pytest.raises(ValueError):
        ledger.record_day(1, gb_served=-1.0, hours_online=5.0)
    with pytest.raises(ValueError):
        ledger.record_day(1, gb_served=1.0, hours_online=25.0)


def test_provider_outlay_and_profitable_share():
    ledger = CreditLedger()
    ledger.record_day(1, gb_served=10.0, hours_online=24.0)  # profitable
    ledger.record_day(2, gb_served=0.0, hours_online=24.0)   # bonus > cost?
    outlay = ledger.provider_outlay_usd()
    assert outlay == pytest.approx(
        ledger.account(1).credits_usd + ledger.account(2).credits_usd)
    assert 0.0 <= ledger.profitable_share() <= 1.0
    assert CreditLedger().profitable_share() == 0.0


def test_system_accrues_credits_during_a_run():
    """End-to-end: a CloudFog run leaves real money in the ledger."""
    from repro.core import CloudFogSystem, cloudfog_basic
    system = CloudFogSystem(cloudfog_basic(num_players=200,
                                           num_supernodes=12, seed=4))
    system.run(days=2)
    assert system.state.credits.provider_outlay_usd() > 0.0
    # Serving supernodes earned more than idle ones.
    served = [a for a in system.state.credits.accounts.values()
              if a.gb_served > 0]
    assert served
    assert system.state.credits.profitable_share() > 0.5


def test_supernode_account_dataclass():
    account = SupernodeAccount(1, credits_usd=5.0, costs_usd=2.0)
    assert account.profit_usd == 3.0
