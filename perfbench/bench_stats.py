"""Order statistics shared by the benchmark, its baseline script and its tests."""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# A tail figure is only reported where at least this many samples lie beyond it.
TAIL_BEYOND = 10
# Seconds the calibration loop takes on the reference machine; times are
# reported as if measured there.
REFERENCE_CALIBRATION_S = 0.0125


def tail(samples) -> tuple:
    """The highest percentile that has at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` sorted samples the value is
    the one at index ``n - 11``, the ``100 * (n - 10) / n``-th percentile, so
    exactly ten samples are larger.  With ten samples or fewer no percentile
    has ten samples beyond it; the median is reported instead (percentile 50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)`` with the quartiles of
    ``statistics.quantiles(values, n=4)``."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (dict updates on tuple keys and
    Fraction sums, like the library's inner loops).  It runs no library code
    and no garbage collection, which would walk the library's caches, so its
    time tracks only the speed of the machine at that moment."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, acc = {}, Fraction(0)
        for i in range(4000):
            key = (i % 97, i % 13, "x")
            table[key] = table.get(key, 0) + i
            acc += Fraction(i % 7, 3 + i % 5)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factors(samples, times, k: int = 5) -> list:
    """For each of ``times``, the factor taking a time measured then to the
    reference machine: ``REFERENCE_CALIBRATION_S`` over the median of the
    ``k`` calibration ``samples`` (``(time, seconds)``, in time order)
    nearest to it."""
    at = [t for t, _ in samples]
    out = []
    for t in times:
        lo = hi = bisect.bisect_left(at, t)
        while hi - lo < k and (lo > 0 or hi < len(at)):
            if hi == len(at) or (lo > 0 and t - at[lo - 1] <= at[hi] - t):
                lo -= 1
            else:
                hi += 1
        out.append(REFERENCE_CALIBRATION_S
                   / statistics.median(sec for _, sec in samples[lo:hi]))
    return out
