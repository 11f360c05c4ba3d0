"""Machine speed, sampled while the benchmark runs.

On a shared machine the same code runs at very different speeds from one
minute to the next.  On the 2-CPU virtual machine this benchmark was built
on, with no steal time reported, a fixed slice of rational arithmetic took
from 91 ms to 170 ms within ninety seconds, and ten back-to-back rounds of
the ``commutant`` workload on one seed took from 8.7 s to 11.1 s of wall
time.  Raw wall times are therefore not comparable between runs.

Every time the benchmark reports is in reference seconds: the wall time of
an interval divided by a factor for the machine's speed over it.  The
factor comes from a fixed calibration kernel, sampled every ``PERIOD_S``
of wall time from a SIGALRM handler, so slow spells in the middle of one
long check count too.  The kernel adds Fractions drawn from a table of
several megabytes, so that, like the library, it depends on the caches
and not only on the core: over eight rounds, a kernel of small-integer
arithmetic left the corrected times a range of 11%, this one 7%.

The kernel's slowdown is its time against ``REFERENCE_S``, about its time
on an idle core of that machine, and the factor is the mean slowdown
raised to ``EXPONENT``: the library slows more than the kernel does, and
the slope of log wall time against log slowdown, fitted over rounds on
that machine, was 1.35 on one seed of ``commutant`` and 1.3 to 1.66
across seeds of the three workloads.  On those ten rounds the
standard deviation over the mean was 7.8% for the wall time, 3.0% with
exponent 1 and 2.3% with this one.

The sampling costs 1 to 2.5% of every interval, which is part of every
time, and the table adds to the peak memory of every run alike.  Raw
wall times and factors are kept in the run record.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.0005
EXPONENT = 1.35
PERIOD_S = 0.05
TABLE_SIZE = 50_000


class Pace:
    """Calibration kernel and, while entered, its samples every PERIOD_S."""

    def __init__(self):
        # imported here, not at module level, so that importing this module
        # leaves the imports repcur makes cold for setup_probe
        from fractions import Fraction

        x, table = 1, []
        for _ in range(TABLE_SIZE):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            table.append(Fraction(x % 10**6 + 1, (x >> 40) % 1000 + 1))
        self._table = table
        self._pos = 0
        self.at: list[float] = []
        self.slowdown: list[float] = []

    def kernel_seconds(self) -> float:
        t, n, p = self._table, TABLE_SIZE, self._pos
        t0 = time.perf_counter()
        for k in range(250):
            t[(p + 4099 * k) % n] + t[(p + 7919 * k + 1) % n]
        elapsed = time.perf_counter() - t0
        self._pos = (p + 104729) % n
        return elapsed

    def factor_now(self, repeats: int) -> float:
        """The factor from ``repeats`` back-to-back kernel runs."""
        mean = sum(self.kernel_seconds() for _ in range(repeats)) / repeats
        return (mean / REFERENCE_S) ** EXPONENT

    def _sample(self, signum, frame):
        s = self.kernel_seconds()
        self.at.append(time.perf_counter())
        self.slowdown.append(s / REFERENCE_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float, default: float = 1.0) -> float:
        """The factor over [start, end]; ``default`` when no sample fell inside."""
        inside = [s for t, s in zip(self.at, self.slowdown) if start <= t <= end]
        return (sum(inside) / len(inside)) ** EXPONENT if inside else default
