"""Supernode incentives — §3.1.1, Eq. 1, and the Fig. 16(a) numbers.

A contributor's profit from running a supernode is::

    P_s(j) = c_s * c_j * u_j - cost_j                                 (1)

reward per bandwidth unit x upload capacity x utilisation, minus running
cost.  §4.4 instantiates the constants: a supernode is "a typical server
that uses approximately 0.25 kW", electricity costs "10.8 cents/kWh (the
US average)", so running it costs 0.25 x 0.108 = $0.027/hour; the
provider "pays 1 dollar for 1 GB bandwidth a supernode contributes"; a
monthly sign-up bonus keeps idle supernodes enrolled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["IncentiveModel", "SupernodeEconomics"]


@dataclass(frozen=True)
class IncentiveModel:
    """Constants of the §4.4 incentive analysis."""

    #: c_s — reward per GB of bandwidth contributed (USD/GB).
    reward_per_gb: float = 1.0
    #: Server power draw (kW) — "approximately 0.25 kW" [57].
    server_power_kw: float = 0.25
    #: Electricity price (USD/kWh) — the US average, 10.8 c/kWh [58].
    electricity_usd_per_kwh: float = 0.108
    #: Monthly sign-up bonus for enrolled-but-idle supernodes (USD).
    monthly_signup_bonus: float = 5.0

    def __post_init__(self) -> None:
        if self.reward_per_gb < 0 or self.monthly_signup_bonus < 0:
            raise ValueError("rewards must be non-negative")
        if self.server_power_kw <= 0 or self.electricity_usd_per_kwh < 0:
            raise ValueError("power/electricity parameters must be valid")

    @property
    def hourly_running_cost(self) -> float:
        """USD per hour to keep the machine on (0.027 for the defaults)."""
        return self.server_power_kw * self.electricity_usd_per_kwh

    def gb_per_hour(self, upload_mbps: float, utilization: float) -> float:
        """Bandwidth contributed in GB over one hour of service."""
        if upload_mbps < 0:
            raise ValueError("upload_mbps must be non-negative")
        if not 0 <= utilization <= 1:
            raise ValueError("utilization must lie in [0, 1] (Eq. 5)")
        bits = upload_mbps * 1e6 * utilization * 3600.0
        return bits / 8.0 / 1e9

    def hourly_reward(self, upload_mbps: float, utilization: float) -> float:
        """c_s * c_j * u_j per hour of service (USD)."""
        return self.reward_per_gb * self.gb_per_hour(upload_mbps, utilization)


@dataclass(frozen=True)
class SupernodeEconomics:
    """The Fig. 16(a) ledger for one supernode over a period."""

    rewards_usd: float
    costs_usd: float

    @property
    def profit_usd(self) -> float:
        return self.rewards_usd - self.costs_usd


def daily_economics(model: IncentiveModel, upload_mbps: float,
                    utilization: float, hours_per_day: float
                    ) -> SupernodeEconomics:
    """Rewards/costs/profit for running ``hours_per_day`` (Fig. 16a x-axis)."""
    if not 0 <= hours_per_day <= 24:
        raise ValueError(f"hours_per_day must lie in [0, 24], got {hours_per_day}")
    rewards = model.hourly_reward(upload_mbps, utilization) * hours_per_day
    costs = model.hourly_running_cost * hours_per_day
    return SupernodeEconomics(rewards_usd=rewards, costs_usd=costs)
