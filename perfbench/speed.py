"""Machine-speed calibration of measured times.

On a machine shared with other tenants the same pure-Python work can take
up to twice as long from one second to the next, in phases that last
from a fraction of a second to minutes.  No run length averages that
out.  So while commands run, a SIGALRM timer interrupts them every
INTERVAL_S and times one fixed reference slice: exact Fraction
arithmetic, written here and sharing nothing with intval.  A command's
time is reported at reference speed:

    (elapsed - time spent in slices) * (REF_SLICE_S / mean slice) ** EXPONENT

where the mean is over the slices taken while the command ran and the
few just before it.  REF_SLICE_S is the slice's time on an idle
reference machine (Intel Xeon, 2 vCPUs, Python 3.11.7), so on such a
machine calibrated and raw times agree.  intval's commands slow down
somewhat less than the slice when the machine is busy: on that machine
the log-log slope of command time against slice time was between 0.8
and 0.97 depending on the workload, and EXPONENT = 0.9 gave the
steadiest calibrated times over ten seeds of each workload.  The slices
take about 2% of the machine while the timer runs; their time is
subtracted from every command time.  Raw times and the speed factor
are kept in the run's record next to the calibrated times.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.025
REF_SLICE_S = 0.00055
EXPONENT = 0.9
# slices taken just before a command that also count towards its speed,
# so that a command shorter than INTERVAL_S still has samples
LOOKBACK = 4


def reference_slice() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 151):
        acc += Fraction(k % 97, 128) * Fraction(3, 7)
    return acc


class SpeedSampler:
    """Context manager that samples the machine's speed on SIGALRM."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0
        self._previous = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_slice()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "SpeedSampler":
        for _ in range(LOOKBACK):
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """Run fn(); return (result, calibrated seconds, raw seconds)."""
        n0, spent0 = len(self.samples), self.spent
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        raw = elapsed - (self.spent - spent0)
        return result, raw * speed_factor(self.samples[max(0, n0 - LOOKBACK):]), raw

    def factor(self) -> float:
        """Reference-speed factor over every slice taken so far."""
        return speed_factor(self.samples)


def speed_factor(slices: List[float]) -> float:
    return (REF_SLICE_S * len(slices) / sum(slices)) ** EXPONENT
