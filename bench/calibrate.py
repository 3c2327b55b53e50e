"""Calibrated time: wall time corrected for the host's changing speed.

Shared cores make a small virtual machine run the same Python code up to 2x slower
for stretches of a fraction of a second to tens of seconds.  `Clock.time`
measures how fast the host is while a call runs: it times a fixed
reference kernel (Fraction arithmetic and dict updates, what voroseg spends
its time on; never voroseg itself) before and after the call, and, through
SIGALRM in this same thread, a short slice of it every PROBE_INTERVAL_S
during the call.  The call's wall time, less the time spent in probes, is
scaled by REF_S_PER_ITER / (mean seconds per kernel iteration), which
gives the call's time at the speed where the kernel takes REF_S_PER_ITER
per iteration: "calibrated seconds".  REF_S_PER_ITER is about the kernel's
speed on a 2-core x86-64 virtual machine under Python 3.11 when no neighbour slows
it down.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_S_PER_ITER = 5.0e-6
BOUNDARY_ITERS = 2000
PROBE_ITERS = 300
PROBE_INTERVAL_S = 0.05


def kernel(iterations: int) -> float:
    """Seconds per iteration of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    counts: dict[tuple[int, int], int] = {}
    for i in range(1, iterations + 1):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 11 + 1, 3)
        if acc > 1000:
            acc = Fraction(1, 3)
        key = (i % 17, i % 13)
        counts[key] = counts.get(key, 0) + 1
    return (time.perf_counter() - t0) / iterations


class Clock:
    """Times calls in calibrated seconds; one call at a time."""

    def __init__(self):
        self._last = kernel(BOUNDARY_ITERS)  # the sample after the previous call
        self._samples: list[float] = []
        self.probe_s = 0.0  # seconds spent in probes so far in the current call

    def _probe(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(kernel(PROBE_ITERS))
        self.probe_s += time.perf_counter() - t0

    def time(self, fn):
        """(calibrated seconds, wall seconds, fn()) for a call of fn."""
        self._samples = [self._last]
        self.probe_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)  # before reading the clock: every probe is inside `wall`
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        wall -= self.probe_s
        self._last = kernel(BOUNDARY_ITERS)
        self._samples.append(self._last)
        return wall * REF_S_PER_ITER / statistics.mean(self._samples), wall, out
