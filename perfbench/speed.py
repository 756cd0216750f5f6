"""Machine-speed probe.

The reference machine is a shared VM whose speed drifts by up to a quarter
over tens of seconds to minutes, far more than the changes the benchmark must
resolve.  A fixed pure-Python computation (exact fractions, tuples, a dict:
the same kind of work tlc does) is timed between operations, and each
operation's time is scaled by NOMINAL_S over the median reference time within
WINDOW_S of it.  Times are therefore reported at the speed at which the
reference computation takes NOMINAL_S; raw times are on the summary line.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0012  # reference() on the reference machine at its fast speed
INTERVAL_S = 0.05  # at most one probe per interval, between operations
WINDOW_S = 1.0

clock = time.perf_counter


def reference():
    s = Fraction(0)
    for i in range(1, 400):
        s += Fraction(i % 7 + 1, i)
    d = {}
    for i in range(1500):
        d[(i % 97, i % 13)] = i
    return s, len(d)


class Probe:
    def __init__(self):
        self.at: list[float] = []
        self.cost: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False):
        """Time reference() unless one was timed less than INTERVAL_S ago."""
        if not force and clock() - self._last < INTERVAL_S:
            return
        t0 = clock()
        reference()
        t1 = clock()
        self.at.append((t0 + t1) / 2)
        self.cost.append(t1 - t0)
        self._last = t1

    def factor(self, start: float, end: float) -> float:
        """Scale for a time measured between start and end."""
        if not self.at:
            return 1.0
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        window = self.cost[lo:hi]
        if not window:
            window = [self.cost[min(bisect.bisect_left(self.at, start), len(self.at) - 1)]]
        return NOMINAL_S / statistics.median(window)
