"""Verdict and set-up times at a fixed reference machine speed.

The benchmark's reference machine (2 vCPUs on a shared host) changes speed
by up to 2x, for spells from a tenth of a second to longer than a whole run.
Raw times of identical work therefore spread by 15-25% between runs, more
than any bound a benchmark could usefully set.

A fixed piece of exact arithmetic (``work``) is timed every ``EVERY_S``
seconds between verdicts.  It is written here, apart from takiffrep, so no
change to the program can change its cost.  Each verdict time is multiplied
by

    REFERENCE_S / (median calibration time within WINDOW_S of its start)

that is, it is expressed at the speed at which ``work`` takes REFERENCE_S,
its usual time on the reference machine.  Set-up times are scaled the same
way, by ``speed_factor`` taken just before and just after the set-up.  A
program change moves the scaled times as much as the raw ones; a change of
machine speed does not.  The raw times are kept in the run record.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import List

# median time of work() on the reference machine (Intel Xeon, KVM, 2 vCPUs,
# Python 3.11.7) in its usual state; its fast spells take about half
REFERENCE_S = 0.00077
EVERY_S = 0.04
WINDOW_S = 0.25
SETUP_SAMPLES = 10

_TERMS = [((i % 6, (5 * i) % 6), Fraction((-1) ** i * (i + 1), i % 7 + 2))
          for i in range(8)]


def work() -> dict:
    """Cube a fixed sparse bivariate polynomial over Fraction."""
    p = dict(_TERMS)
    q = p
    for _ in range(2):
        c: dict = {}
        for (i1, j1), v1 in p.items():
            for (i2, j2), v2 in q.items():
                e = (i1 + i2, j1 + j2)
                c[e] = c.get(e, 0) + v1 * v2
        q = c
    return q


def timed_work() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def speed_factor() -> float:
    """REFERENCE_S over the median of a few calibration times, taken now."""
    return REFERENCE_S / statistics.median(
        timed_work() for _ in range(SETUP_SAMPLES))


class Calibration:
    """Calibration samples of one run: (start, duration) in perf_counter s."""

    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []

    def maybe_sample(self, now: float) -> None:
        """Time ``work()`` once if EVERY_S has passed since the last sample."""
        if self.starts and now - self.starts[-1] < EVERY_S:
            return
        self.starts.append(time.perf_counter())
        self.durations.append(timed_work())

    def rescale(self, starts: List[float], times: List[float]) -> List[float]:
        """Each time at reference speed, by the calibration around it."""
        out = []
        for start, t in zip(starts, times):
            lo = bisect_left(self.starts, start - WINDOW_S)
            hi = bisect_right(self.starts, start + WINDOW_S)
            local = statistics.median(self.durations[lo:hi] or self.durations)
            out.append(t * REFERENCE_S / local)
        return out
