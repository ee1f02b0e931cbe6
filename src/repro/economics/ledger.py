"""Credit ledger: per-supernode reward accrual over a run.

§3.1.1's incentive mechanism, operationalised: supernodes "receive a
small amount of monthly sign up bonus" for being enrolled and "when they
contribute bandwidth and support players, they can receive more
credits."  The ledger turns the per-day served traffic of each supernode
into credits through the :class:`~repro.economics.incentives.
IncentiveModel`, charges the contributor's electricity, and answers the
question every contributor asks: is my machine profitable (Eq. 1)?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .incentives import IncentiveModel

__all__ = ["SupernodeAccount", "CreditLedger"]


@dataclass
class SupernodeAccount:
    """Running totals for one contributed machine."""

    supernode_id: int
    credits_usd: float = 0.0
    costs_usd: float = 0.0
    gb_served: float = 0.0
    days_enrolled: int = 0

    @property
    def profit_usd(self) -> float:
        """Eq. 1 over the machine's whole enrolment."""
        return self.credits_usd - self.costs_usd


@dataclass
class CreditLedger:
    """All contributor accounts plus the provider's total outlay."""

    incentives: IncentiveModel = field(default_factory=IncentiveModel)
    accounts: dict[int, SupernodeAccount] = field(default_factory=dict)
    #: Days per month for prorating the sign-up bonus.
    days_per_month: int = 30

    def account(self, supernode_id: int) -> SupernodeAccount:
        if supernode_id not in self.accounts:
            self.accounts[supernode_id] = SupernodeAccount(supernode_id)
        return self.accounts[supernode_id]

    def record_day(self, supernode_id: int, gb_served: float,
                   hours_online: float) -> None:
        """Credit one day of service: bandwidth rewards + prorated
        sign-up bonus, minus electricity."""
        if gb_served < 0:
            raise ValueError("gb_served must be non-negative")
        if not 0 <= hours_online <= 24:
            raise ValueError("hours_online must lie in [0, 24]")
        account = self.account(supernode_id)
        account.days_enrolled += 1
        account.gb_served += gb_served
        account.credits_usd += (
            self.incentives.reward_per_gb * gb_served
            + self.incentives.monthly_signup_bonus / self.days_per_month)
        account.costs_usd += (
            self.incentives.hourly_running_cost * hours_online)

    def provider_outlay_usd(self) -> float:
        """Everything the provider has credited to contributors."""
        return sum(a.credits_usd for a in self.accounts.values())

    def profitable_share(self) -> float:
        """Share of contributors for whom Eq. 1 is positive."""
        if not self.accounts:
            return 0.0
        profitable = sum(1 for a in self.accounts.values()
                         if a.profit_usd > 0)
        return profitable / len(self.accounts)
