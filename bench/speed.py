"""The speed of the core a run is pinned to, sampled between operations.

The benchmark runs on shared machines whose cores change speed by up to
2x within seconds (co-tenants, frequency), and the swings on one core are
unrelated to those on another.  A run therefore pins itself and every
process it starts to one core, and times this fixed kernel after each
operation, and every PERIOD seconds during an operation that runs in the
worker's own process (from a SIGALRM handler, whose time is taken out of
the operation's).  An operation's time is reported as

    wall time * REFERENCE / (mean kernel time from WINDOW seconds before
                             the operation to WINDOW seconds after it,
                             without its highest and lowest tenth),

that is, in seconds at the speed where the kernel takes REFERENCE seconds.
The window smooths the kernel's own noise (about 20% per sample) while
following the swings, which last seconds.
The kernel mixes what the package's own work is made of (mpmath
arithmetic on Python integers, Fraction arithmetic, dict and tuple
traffic) and uses nothing of the package, so a change to the package moves
the operation's time and not the kernel's.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from fractions import Fraction

import mpmath

# the kernel's median time on the machine of the README's reference
# figures, so that there the reported times read as wall seconds
REFERENCE = 0.0032
PERIOD = 0.25
WINDOW = 0.5


def kernel():
    with mpmath.workprec(100):
        x = mpmath.mpf(1) / 3
        s = mpmath.mpf(0)
        for i in range(1, 300):
            s = s + x / i
    q = Fraction(0)
    for i in range(1, 80):
        q += Fraction(1, i)
    table = {}
    for i in range(3000):
        table[(i, i % 7)] = i
    return s, q, len(table)


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def steady_sample() -> float:
    """Median of three kernel runs, for the one-off set-up samples."""
    return statistics.median(sample() for _ in range(3))


def scale(wall: float, samples) -> float:
    samples = sorted(samples)
    cut = len(samples) // 10
    return wall * REFERENCE / statistics.fmean(samples[cut:len(samples) - cut])


def around(samples, start: float, end: float):
    """Kernel times of the (time, seconds) samples taken within WINDOW
    seconds of the interval [start, end]."""
    return [d for t, d in samples if start - WINDOW <= t <= end + WINDOW]


class Sampler:
    """(time, kernel seconds) samples taken every PERIOD seconds while it
    is running, appended to a shared list."""

    def __init__(self, samples, measure=sample):
        self.samples = samples
        self.measure = measure
        self.stolen = 0.0

    def _tick(self, _signum, _frame):
        start = time.perf_counter()
        self.samples.append((start, self.measure()))
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self.stolen = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def pin():
    """Keep this process, and the processes it starts, on one core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
