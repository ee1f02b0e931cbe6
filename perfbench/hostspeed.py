"""Host-speed probe: converts measured host seconds to nominal seconds.

On a shared host the simulator's CPU time for the same deterministic run
swings by 1.5-3x for seconds to minutes at a time, as co-tenants contend
for the cores and caches; the process is not descheduled (its CPU time
tracks its wall time), it just executes slower.  A raw wall time then
mostly measures the neighbours.

While a :class:`Probe` is active, an interval timer interrupts the
process every ``INTERVAL_S`` and times a fixed calibration kernel (small
dict and numpy operations, like the simulator's inner loops) in thread
CPU time.  A host second at sample ``i`` is worth ``NOMINAL_KERNEL_S /
kernel_i`` nominal seconds, so an interval of ``t`` host seconds did
``t * NOMINAL_KERNEL_S * mean(1 / kernel_i)`` nominal seconds of work.
``NOMINAL_KERNEL_S`` is the kernel's time on an idle two-core x86-64
Linux host, so on such a host nominal and host seconds about agree.

The kernel lives here, not in the simulator, so a change to the
simulator moves nominal times exactly as it moves host times.

Sharded runs do their work in worker processes, where a probe sampled
from the waiting parent would only measure the parent's contention with
them.  There :class:`WithProbe`, installed through the ``configure``
seam, starts a probe in every worker, which logs its samples to a file
for the parent to read back (:func:`read_logs`).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean

import numpy as np

#: Seconds between samples, and the kernel's time on an idle host.
INTERVAL_S = 0.05
NOMINAL_KERNEL_S = 0.0007
#: Samples an interval borrows from around it when it holds fewer.
MIN_SAMPLES = 3

_ARRAYS = [np.random.default_rng(0).random(256) for _ in range(8)]


def kernel() -> float:
    """Run the calibration kernel once; return its thread CPU seconds."""
    start = time.thread_time()
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    total = 0.0
    for values in _ARRAYS:
        total += float(np.where(values > 0.5, values * 2.0, values).sum())
        np.argsort(values)
    return time.thread_time() - start


class Probe:
    """Samples host speed on a timer while active (a context manager).

    ``samples`` holds ``(perf_counter time, kernel seconds)`` pairs;
    with a ``log`` path each is also appended to that file.  The timer is
    a real-time one, so samples are evenly spaced in wall time; system
    calls it interrupts are restarted.  ``perf_counter`` is the system's
    monotonic clock, so samples of different processes line up.
    """

    def __init__(self, log: Path | None = None) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._log = log.open("a", buffering=1) if log else None

    def sample(self) -> None:
        point = (time.perf_counter(), kernel())
        self.samples.append(point)
        if self._log is not None:
            self._log.write(f"{point[0]!r} {point[1]!r}\n")

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.siginterrupt(signal.SIGALRM, False)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def nominal(self, start: float, end: float) -> float:
        """Nominal seconds of work done from ``start`` to ``end``.

        Uses the samples taken in the interval, or the ``MIN_SAMPLES``
        nearest its middle when it holds fewer.
        """
        inside = [k for t, k in self.samples if start <= t <= end]
        if len(inside) < MIN_SAMPLES:
            middle = 0.5 * (start + end)
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))
            inside = [k for _, k in nearest[:MIN_SAMPLES]]
        return (end - start) * NOMINAL_KERNEL_S * fmean(
            1.0 / k for k in inside)


def read_logs(directory) -> list[tuple[float, float]]:
    """Every sample the probe logs in ``directory`` hold."""
    samples = []
    for path in sorted(Path(directory).glob("probe-*.txt")):
        for line in path.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:
                samples.append((float(fields[0]), float(fields[1])))
    return samples


_WORKER_PROBES: dict[int, Probe] = {}


@dataclass(frozen=True)
class WithProbe:
    """``configure`` hook: apply ``configure``, then probe this worker.

    The first call in a process other than ``parent_pid`` starts a probe
    logging to ``probe-<pid>.txt`` in ``directory``; it runs until the
    worker exits.  Picklable, like every ``configure`` hook.
    """

    directory: str
    parent_pid: int
    configure: object = None

    def __call__(self, state) -> None:
        if self.configure is not None:
            self.configure(state)
        pid = os.getpid()
        if pid != self.parent_pid and pid not in _WORKER_PROBES:
            log = Path(self.directory) / f"probe-{pid}.txt"
            _WORKER_PROBES[pid] = Probe(log).__enter__()
