"""Heartbeat-style failure detection — the §3.2.2 timeout model.

The paper attributes ~0.5 s of the ~0.8 s migration latency to the
player noticing its supernode is gone ("periodic probing").  This
module models the mechanism behind that number instead of a fixed
timeout:

* the player expects a heartbeat every ``heartbeat_interval_ms``;
* it declares the supernode dead after ``misses_to_declare``
  consecutive silent intervals;
* one final direct probe of ``probe_timeout_ms`` confirms the death.

Detection latency therefore spans the *phase* of the crash within the
heartbeat period — a crash right after a beat takes almost a full
extra interval to notice.  :meth:`FailureDetector.detection_latency_ms`
draws that phase uniformly from the crash handler's ``faults-{day}``
stream, once per displaced session.

The defaults put the mean draw at the paper's half second:
``125 + 250·(2−1) + 125 = 500 ms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FailureDetector"]


@dataclass(frozen=True)
class FailureDetector:
    """A configurable heartbeat timeout model."""

    heartbeat_interval_ms: float = 250.0
    misses_to_declare: int = 2
    probe_timeout_ms: float = 125.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval_ms <= 0:
            raise ValueError("heartbeat_interval_ms must be positive")
        if self.misses_to_declare < 1:
            raise ValueError("misses_to_declare must be >= 1")
        if self.probe_timeout_ms < 0:
            raise ValueError("probe_timeout_ms must be non-negative")

    @property
    def announced_detection_ms(self) -> float:
        """Detection time for a provider-*announced* loss (preemption).

        No heartbeat silence to wait out — the control plane said the
        node is going away — so only the confirming probe remains.
        """
        return self.probe_timeout_ms

    def detection_latency_ms(self, rng: np.random.Generator) -> float:
        """One detection latency draw: a uniform heartbeat phase."""
        phase = float(rng.uniform(0.0, self.heartbeat_interval_ms))
        return (phase
                + (self.misses_to_declare - 1) * self.heartbeat_interval_ms
                + self.probe_timeout_ms)
