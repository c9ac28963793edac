"""Machine-speed reference for the timings.

On a shared machine the speed of one core drifts by tens of percent within
seconds and over minutes, as other tenants come and go.  Every run
therefore also times a fixed pure-Python kernel, sampled every
``INTERVAL_S`` throughout the measurement, and scales the time of each
request by ``NOMINAL_S / median(kernel time)`` over the samples taken
during that request (at least ``MIN_SAMPLES`` of them, the nearest ones, for
a short request).  The kernel runs with the garbage collector off, so that
no collection of the measured program's heap lands inside a sample: such a
pause would be taken out of the request's time and would also slow the
sample.  The figures are then seconds at the speed the reference
machine had when ``NOMINAL_S`` was recorded (the median kernel time on the
2-core sandbox the benchmark was written on).  The kernel is made of the
interpreter operations fcperm's code is made of: integer arithmetic, tuple
hashing, dict inserts and a keyed sort.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 0.00083
INTERVAL_S = 0.1
MIN_SAMPLES = 9


def kernel() -> int:
    table = {}
    total = 0
    for i in range(2400):
        key = (i, i ^ 5, i % 7)
        table[key] = total
        total += i * i
    return len(sorted(table, key=lambda k: k[1])) + total


def timed_kernel() -> float:
    """One warm run of the kernel, with the collector off: the first run
    refills the caches the measured code has used, the second is timed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Times the kernel on a SIGALRM timer while requests run.

    ``spent`` is the total time taken by the samples, so that callers can
    take it out of the time they measure; ``charge``, when given, is told
    the duration of each sample as it is taken.
    """

    def __init__(self, charge=None) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self.charge = charge

    def _handler(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append((t0, timed_kernel()))
        d = perf_counter() - t0
        self.spent += d
        if self.charge:
            self.charge(d)

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scale(durations: list[float]) -> float:
    """Factor that turns a time measured alongside kernel runs of these
    durations into a time at the reference speed."""
    return NOMINAL_S / statistics.median(durations)


def local_scales(samples: list[tuple[float, float]], intervals) -> list[float]:
    """``scale`` for each (start, end) interval, from the (time, duration)
    samples taken inside it, or from the ``MIN_SAMPLES`` nearest ones."""
    samples = sorted(samples)
    times = [t for t, _ in samples]
    durations = [d for _, d in samples]
    count = len(samples)
    want = min(MIN_SAMPLES, count)
    out = []
    for t0, t1 in intervals:
        lo, hi = bisect_left(times, t0), bisect_right(times, t1)
        if hi - lo < want:
            lo = max(0, min(bisect_left(times, (t0 + t1) / 2) - want // 2, count - want))
            hi = lo + want
        out.append(scale(durations[lo:hi]))
    return out
