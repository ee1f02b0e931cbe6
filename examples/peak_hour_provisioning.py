"""Forecast-driven supernode provisioning over a simulated month.

Generates a realistic weekly player-count pattern (diurnal peak at
8 pm–midnight, <10 % week-to-week variation), trains the §3.5 seasonal
ARIMA forecaster on it, and shows how many supernodes Eq. 15 would
pre-deploy per 4-hour window — including how the Eq. 16 popularity
preference picks *which* candidates get deployed.

Run with::

    python examples/peak_hour_provisioning.py
"""

import numpy as np

from repro.core.columns import SupernodePool
from repro.core.provisioning import Provisioner
from repro.forecast.diurnal import DiurnalPattern


def main() -> None:
    pattern = DiurnalPattern(base_players=2000.0, weekly_noise=0.05)
    hourly = pattern.generate(np.random.default_rng(0), weeks=4)

    provisioner = Provisioner(average_capacity=5.0, epsilon=0.2,
                              window_hours=4)
    # Aggregate hours into 4-hour windows (mean population per window).
    windows = hourly.reshape(-1, 4).mean(axis=1)

    print("Training the seasonal ARIMA on 3 weeks of windows...")
    train = windows[:3 * provisioner.windows_per_week]
    for value in train:
        provisioner.observe(value)

    print(f"forecaster ready: {provisioner.ready}\n")
    print(f"{'window':>7} {'hour':>6} {'actual':>8} {'forecast':>9} "
          f"{'supernodes':>11}")
    test = windows[3 * provisioner.windows_per_week:]
    errors = []
    for index, actual in enumerate(test[:12]):   # two days of windows
        forecast = provisioner.forecast_players()
        target = provisioner.target_supernodes()
        hour = (index * 4) % 24
        errors.append(abs(forecast - actual) / max(actual, 1.0))
        print(f"{index:>7} {hour:>4}h {actual:>8.0f} {forecast:>9.0f} "
              f"{target:>11}")
        provisioner.observe(actual)
    print(f"\nmean absolute forecast error: {np.mean(errors):.1%}")

    # Which candidates get deployed: Eq. 16's 1/rank preference.
    pool = SupernodePool(host_player=range(12), capacity=[5] * 12,
                         upload_mbps=[15.0] * 12, access_ms=[5.0] * 12)
    pool.supported_total[:] = 120 - 10 * np.arange(12)  # busiest first
    chosen = provisioner.choose_deployment(
        pool, count=5, rng=np.random.default_rng(1))
    print("\nEq. 16 deployment pick (5 of 12, busiest-favoured):", chosen)


if __name__ == "__main__":
    main()
