"""A fixed pure-Python computation used as the unit of time.

On a shared host the speed of one CPU changes by up to a factor of two
within a fraction of a second. A timer signal therefore runs a short
reference computation every INTERVAL_S seconds for the whole run.
An operation's time in reference units is its wall time, less the time
the probe itself took inside it, divided by the mean duration of the probe
samples taken during it (at least MIN_SAMPLES of the nearest ones for
short operations). Over six runs of `suites_sd1` the spread between rounds
(interquartile range over median) was 4-6 % with this probe, 10-13 % with
a reference timed only before and after each operation, and 11-20 % for
raw seconds.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.04
MIN_SAMPLES = 8
# Mean duration of one sample on the 2-CPU host the README's figures come
# from (CPython 3.11.7); converts reference units to seconds on that host.
NOMINAL_S = 0.0017

_N = 300
_ROW_A = tuple((i * 37) % 11 - 5 for i in range(_N))
_ROW_B = tuple((i * 53) % 7 - 3 for i in range(_N))
_VALUES = tuple(Fraction(i % 5 - 2, i % 3 + 1) for i in range(_N))


def _work():
    """Integer row operations, a Fraction pairing and dict updates: the
    verifier's inner loops in miniature."""
    row = list(_ROW_A)
    for q in (2, -3, 5):
        row = [x - q * y for x, y in zip(row, _ROW_B)]
    acc = Fraction(0)
    for x, f in zip(row, _VALUES):
        if x:
            acc += x * f
    table: dict = {}
    for i, x in enumerate(row):
        table[x % 17] = table.get(x % 17, 0) + i
    return acc, sum(table.values())


_RESULT = _work()


class Probe:
    """Samples the reference computation from SIGALRM while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        out = _work()
        t1 = time.perf_counter()
        if out != _RESULT:
            raise RuntimeError("reference computation gave a different result")
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds, reference units) of the interval [t0, t1], both
        without the probe's own samples inside it."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        seconds = t1 - t0 - sum(self.durations[lo:hi])
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2,
                            len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return seconds, seconds / statistics.fmean(self.durations[lo:hi])
