"""Host-speed calibration for the benchmark's timings.

On a few shared cores, other tenants slow all interpreted code: the same
work runs at one of two speeds, about 2x apart, switching within a second
and drifting over minutes, which no amount of work within one run averages
out.  A fixed kernel of pure-Python work in stopflow's mix (a recursive
composition generator with big binomials, a bisect-and-insert arrival loop
over small objects, a seeded shuffle, Fraction sums) is timed between
consecutive calls and, from a timer signal, every SAMPLE_INTERVAL_S during
them.  Each call's time is scaled by REF_S / (the kernel's mean time around
and during it): end-to-end times read as seconds on a host where the kernel
takes REF_S.  The kernel is the benchmark's own code, so a change to
stopflow cannot move it.
"""
from __future__ import annotations

import bisect
import contextlib
import math
import random
import signal
import statistics
import time
from fractions import Fraction

REF_S = 0.002
FIRST_REPS = 5  # kernel runs timed before the first call
BOUNDARY_REPS = 2
SAMPLE_INTERVAL_S = 0.05


def _parts(rem: int, weight: int, top: int):
    if weight > top:
        if rem == 0:
            yield ()
        return
    for a in range(rem // weight + 1):
        for tail in _parts(rem - a * weight, weight + 1, top):
            yield (a,) + tail


class _Run:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo, self.hi = lo, hi


def kernel() -> int:
    total = 0
    for parts in _parts(14, 1, 5):
        total += math.comb(40, sum(parts)) * math.comb(30, len(parts))
    order = list(range(1, 301))
    random.Random(12345).shuffle(order)
    arrived: list[int] = []
    runs: list[_Run] = []
    for pos in order:
        i = bisect.bisect_left(arrived, pos)
        arrived.insert(i, pos)
        if i == 0 or pos - arrived[i - 1] > 2:
            runs.append(_Run(pos, pos))
        total += sum(r.hi - r.lo for r in runs[-20:])
    frac = Fraction(0)
    for i in range(1, 60):
        frac += Fraction(math.comb(60, i), i * i + 1)
    return total + frac.denominator % 7


def calibrate(reps: int) -> float:
    """Median time of ``reps`` runs of the kernel, in seconds."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the kernel during timed calls, once per SAMPLE_INTERVAL_S.

    While active, a SIGALRM handler runs the kernel between bytecodes of
    the main thread, but only inside a ``clock()`` block; the kernel's time
    is subtracted from the block's duration.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.boundary_s = calibrate(FIRST_REPS)
        self.spent = 0.0  # all kernel time inside clock() blocks so far
        self._inside = False
        self._previous = None

    def _handler(self, signum, frame) -> None:
        if self._inside:
            start = time.perf_counter()
            kernel()
            seconds = time.perf_counter() - start
            self.samples.append(seconds)
            self.spent += seconds

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextlib.contextmanager
    def clock(self):
        """Yields a one-item list that receives the block's duration, less
        the kernel runs inside it; ``samples`` then holds those runs."""
        span = [0.0]
        self.samples = []
        self._inside = True
        start = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - start
            self._inside = False
            span[0] = elapsed - sum(self.samples)

    def scale(self) -> float:
        """Host-speed factor of the last ``clock()`` block: REF_S over the
        mean kernel time before, during and after it."""
        after = calibrate(BOUNDARY_REPS)
        kernel_s = statistics.fmean([self.boundary_s, *self.samples, after])
        self.boundary_s = after
        return REF_S / kernel_s

    def clock_s(self) -> float:
        """perf_counter less the kernel's time, for timing spans inside calls."""
        return time.perf_counter() - self.spent
