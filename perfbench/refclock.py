"""Times in reference seconds: measured time scaled by the machine's current speed.

On a shared host the speed of one core swings by up to 2x over tens of
seconds: a round of the scan workload measured 0.73 s and 1.53 s within one
90-second run of one process, with CPU time moving with wall time. No run
length averages that out. So while a run measures, a timer runs a fixed
pure-Python kernel every CAL_INTERVAL_S (a Gauss-Jordan elimination over
GF(7), written the way the package's linalg is, and independent of the
package) and records how long it took. Each measured interval loses the
kernel time that fell inside it, and is scaled by REF_KERNEL_S over the
mean kernel time inside it and on each side of it. A reference second is a
second at the speed where one kernel call takes REF_KERNEL_S.

What was tried, over five runs of 12 reference seconds each (interquartile
range over median of wall time):
- kernel between operations only: locality 0.111, because one operation
  runs 1.4 s and the speed changes inside it; repair 0.024;
- a 0.1 ms probe every 5 ms: repair 0.152, the package slowing more than
  the small probe did;
- this clock: scan 0.041, locality 0.031, repair 0.008, verify 0.029.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

REF_KERNEL_S = 0.0135  # one kernel call at reference speed: the fast speed seen on the seed machine
CAL_INTERVAL_S = 0.25


class _Field:
    """GF(p) by tables, with the package's call shape: a range check per operation."""

    def __init__(self, p: int):
        self.q = p
        self.add_t = [[(a + b) % p for b in range(p)] for a in range(p)]
        self.mul_t = [[(a * b) % p for b in range(p)] for a in range(p)]
        self.neg_t = [(-a) % p for a in range(p)]
        self.inv_t = [0] + [pow(a, p - 2, p) for a in range(1, p)]

    def _check(self, *elems):
        for a in elems:
            if not 0 <= a < self.q:
                raise ValueError(a)

    def sub(self, a, b):
        self._check(a, b)
        return self.add_t[a][self.neg_t[b]]

    def mul(self, a, b):
        self._check(a, b)
        return self.mul_t[a][b]

    def inv(self, a):
        self._check(a)
        return self.inv_t[a]


_F = _Field(7)
_rng = random.Random(20170123)
# 12 x 300: rows of a few hundred symbols, like the package's. A 16 x 24
# kernel was slowed less than the package when the host got busy.
_MATRIX = tuple(tuple(_rng.randrange(_F.q) for _ in range(300)) for _ in range(12))


def _kernel():
    f = _F
    rows = [list(r) for r in _MATRIX]
    pr = 0
    for c in range(len(rows[0])):
        pv = next((r for r in range(pr, len(rows)) if rows[r][c]), None)
        if pv is None:
            continue
        rows[pr], rows[pv] = rows[pv], rows[pr]
        lead = rows[pr][c]
        if lead != 1:
            inv = f.inv(lead)
            rows[pr] = [f.mul(inv, x) for x in rows[pr]]
        prow = rows[pr]
        for r in range(len(rows)):
            fct = rows[r][c]
            if fct and r != pr:
                rows[r] = [f.sub(x, f.mul(fct, y)) for x, y in zip(rows[r], prow)]
        pr += 1
        if pr == len(rows):
            break
    return rows


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class RefClock:
    """Runs the kernel on a timer while open and converts intervals to reference seconds.

        with RefClock() as clock:
            start = clock.mark()
            ...  # the work, perhaps several intervals, each ending at a mark
            clock.add((start, end_mark, seconds), ...)
        converted = clock.converted()

    The kernel's own time inside an interval is taken out of it. The speed
    for an interval is the mean kernel time over the samples inside it and
    the one on each side. With sampling=False nothing runs on the timer and
    intervals stay in measured seconds.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[float] = []
        self._busy = False
        self._pending: list[tuple] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            self.samples.append(kernel_seconds() if self.sampling else REF_KERNEL_S)
        finally:
            self._busy = False

    def __enter__(self):
        self._sample()
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def mark(self) -> int:
        return len(self.samples)

    def add(self, *intervals: tuple[int, int, float]) -> None:
        """Queue one operation's intervals, each (start mark, end mark, seconds)."""
        self._pending.append(intervals)

    def converted(self) -> list[tuple[float, ...]]:
        out = []
        for intervals in self._pending:
            first = intervals[0][0]
            last = max(end for _, end, _ in intervals)
            speed = statistics.fmean(self.samples[first - 1 : last + 1])
            out.append(tuple(
                (seconds - sum(self.samples[start:end])) * REF_KERNEL_S / speed
                for start, end, seconds in intervals
            ))
        return out
