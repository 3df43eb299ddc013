"""A fixed reference computation that tracks the host's current CPU speed.

On a shared host the CPU speed available to one process drifts by tens of
percent within seconds, and at times switches between modes about 1.5x
apart for minutes.  CPU time moves with wall time, so no clock separates
that drift from the program's own cost.  The benchmark therefore runs a
small unit of reference work from a timer signal at a fixed period while a
campaign runs, and reports campaign time in units of the mean reference
time: both run on the same CPU in the same stretch of time, so their ratio
changes only when the campaign does.

The unit mixes what kzfox spends its time on: dictionary-keyed complex
products in pure Python, small dense numpy products, and exact Fraction
arithmetic.  It shares no code with kzfox, so a change to kzfox cannot move
it.  Do not change it between two measurements that are compared.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import numpy as np

_DICT_SERIES = {(i, j): complex(i + 1, j - 1) for i in range(6) for j in range(6)}
_RATIONALS = {(i,): Fraction(i + 1, i + 2) for i in range(14)}
_MATRIX = np.array([[0.1, 0.2j], [0.3, -0.1j]])


def reference_work():
    """One unit of reference work, 1.5 to 3 ms on the host described in README.md."""
    series = {}
    for (i1, j1), c1 in _DICT_SERIES.items():
        for (i2, j2), c2 in _DICT_SERIES.items():
            key = (i1 + i2, j1 ^ j2)
            series[key] = series.get(key, 0j) + c1 * c2
    y = np.eye(2, dtype=complex)
    for _ in range(150):
        y = y + 1e-3 * (_MATRIX @ y)
    rationals = {}
    for k1, c1 in _RATIONALS.items():
        for k2, c2 in _RATIONALS.items():
            key = k1 + k2
            rationals[key] = rationals.get(key, 0) + c1 * c2
    return series, y, rationals


def reference_seconds() -> float:
    """Wall seconds of one unit of reference work."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class ReferenceSampler:
    """Runs the reference unit from SIGALRM every ``period_s`` inside ``with``.

    ``samples`` holds the wall seconds of each unit run in the block.  The
    handler runs between bytecodes of the main thread, so a long native call
    delays the next sample.  Subtract ``sum(samples)`` from the time of the
    block to get the time of the work alone.
    """

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(reference_seconds())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_seconds(self) -> float:
        """Mean reference time in the block; one unit run now if it had none."""
        if not self.samples:
            return reference_seconds()
        return sum(self.samples) / len(self.samples)
