"""A reference clock: a fixed pure-Python kernel timed between units of work.

The shared host the benchmark was built on changes speed by up to 2x within
seconds, and stays fast or slow for minutes.  A run that lands in a slow
stretch reads slow on every metric, whatever its medians.  So every timed
unit of work is bracketed by two ticks of this clock, and its time is
scaled by how fast the kernel ran at those ticks:

    scaled = raw * REFERENCE_S / mean(tick before, tick after)

A scaled time is the time the unit would take on a machine where one tick
takes REFERENCE_S.  The kernel is code of the benchmark's own: a plain
scan over the multipliers m < n of fixed sequences, with products,
comparisons and gcd, like zsindex's certificate searches and brute-force
index.  So a change to zsindex does not move it and shows in full in the
scaled times.
"""

from __future__ import annotations

import math
import random
import statistics
from time import perf_counter

# About one tick on the benchmark's 2-vCPU x86-64 VM (Python 3.11) in a
# fast stretch, so that scaled times read about as the raw ones there.
REFERENCE_S = 0.00022
CALLS_PER_TICK = 5


def _sequences() -> list[tuple[int, tuple[int, ...]]]:
    rng = random.Random("perfbench reference clock")
    out = []
    while len(out) < 10:
        n = rng.randrange(60, 140)
        head = [rng.randrange(1, n) for _ in range(3)]
        coeffs = tuple(sorted(head + [-sum(head) % n]))
        if coeffs[0]:
            out.append((n, coeffs))
    return out


SEQUENCES = _sequences()


def kernel() -> int:
    """For every fixed sequence (a, b, c, d) mod n and k = 1..5, count the units
    m < n with m*a < n and m >= k*n/c."""
    hits = 0
    for n, (a, _, c, _) in SEQUENCES:
        for k in range(1, 6):
            lo = -(-k * n // c)
            for m in range(1, n):
                if m * a < n and math.gcd(m, n) == 1 and lo <= m:
                    hits += 1
    return hits


class RefClock:
    """Ticks of the reference kernel; each tick is the median of a few calls."""

    def __init__(self) -> None:
        self.ticks: list[float] = []

    def tick(self) -> float:
        calls = []
        for _ in range(CALLS_PER_TICK):
            start = perf_counter()
            kernel()
            calls.append(perf_counter() - start)
        self.ticks.append(statistics.median(calls))
        return self.ticks[-1]

    def factor(self, before: float, after: float) -> float:
        """Scale for a unit of work timed between the ticks `before` and `after`."""
        return REFERENCE_S * 2 / (before + after)
