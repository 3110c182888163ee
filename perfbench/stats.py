"""Percentile rules for job latencies."""
from __future__ import annotations

import math

# A failed job enters the penalised percentiles at this many seconds, more
# than any job can take, since a whole run is kept under 180 s.
PENALTY_S = 180.0


TAIL_CAP = 90  # p98 of a 500-job run is set by a few machine stalls


def tail_percentile(n: int) -> int:
    """Highest integer percentile, at most TAIL_CAP, with at least ten of n
    samples above it (nearest rank); 50 when there are too few samples for
    any higher one."""
    if n <= 20:
        return 50
    return min(TAIL_CAP, max(50, (100 * (n - 10)) // n))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    k = max(1, math.ceil(p / 100.0 * len(xs)))
    return xs[k - 1]


def penalised(seconds, failed) -> list[float]:
    """Job latencies with every failed job replaced by PENALTY_S.  Turning a
    failure into a success replaces PENALTY_S by a smaller value, so no
    percentile of the result can rise."""
    return [PENALTY_S if bad else s for s, bad in zip(seconds, failed)]
