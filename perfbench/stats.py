"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
import statistics

#: Percentiles the report may quote, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: Samples that must lie beyond a quoted percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("no samples")
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - rank(n, q)


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest quotable percentile: at least MIN_BEYOND samples beyond it."""
    for q in PERCENTILES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def samples_for(q: float) -> int:
    """Fewest samples that let the q-th percentile be quoted."""
    n = 1
    while beyond(n, q) < MIN_BEYOND:
        n += 1
    return n


def median(values) -> float:
    return statistics.median(values)


def local_speed(speeds, start: float, end: float, window: float, least: int = 3) -> float:
    """Median time of the speed probes, given as (start, seconds), that began
    from ``window`` seconds before ``start`` to ``window`` seconds after
    ``end``; the ``least`` probes nearest in time if fewer began then."""
    near = [seconds for t, seconds in speeds if start - window <= t <= end + window]
    if len(near) < least:
        middle = (start + end) / 2.0
        nearest = sorted(speeds, key=lambda probe: abs(probe[0] - middle))[:least]
        near = [seconds for _, seconds in nearest]
    return median(near)


def relative_spread(values) -> float:
    """Interquartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
