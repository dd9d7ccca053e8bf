"""Order statistics used to report timings."""

from __future__ import annotations

import math
import statistics

# Percentiles considered for a tail, lowest first.
TAIL_RUNGS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
# A tail percentile needs at least this many samples ranked beyond it.
MIN_BEYOND = 10


def tail(values):
    """The highest percentile of :data:`TAIL_RUNGS` with at least
    :data:`MIN_BEYOND` samples ranked beyond it, as ``(pct, value, n)``; the
    value is the nearest-rank percentile.

    With too few samples for any rung (fewer than ``2 * MIN_BEYOND``)
    ``pct`` and ``value`` are None.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = (None, None)
    for pct in TAIL_RUNGS:
        rank = math.ceil(round(pct * n / 100.0, 9))
        if rank >= 1 and n - rank >= MIN_BEYOND:
            best = (pct, ordered[rank - 1])
    return best[0], best[1], n


def median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default

