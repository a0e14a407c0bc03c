"""Percentiles, quartiles and the regression verdicts of ``compare``.

The verdict rules follow the benchmark's method.  A gain needs at
least ten parent/change pairs, the change winning at least nine tenths
of them (ties count for neither), and the medians differing by more
than the parent's own quartile spread.  A regression is a median worse
than the parent's by more than the metric's bound.  A parent spread
wider than the bound makes the metric unresolved, unless every change
run beats every parent run.  A metric without a bound reads worse only
by the mirror of the gain rule.  A bound of 0 marks a count the
program makes: it must repeat exactly on each side, and any difference
between the sides is a change.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

__all__ = ["MIN_PAIRS", "percentile", "quartiles", "verdict"]

#: Parent/change pairs needed before a gain (or an unbounded loss) can
#: be claimed.
MIN_PAIRS = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them;
    a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> str:
    """``better``, ``worse``, ``unchanged`` or ``unresolved`` for one
    metric on one workload.  ``parent`` and ``change`` are per-run
    values in run order; run ``i`` of each side forms pair ``i``.
    ``bound=None`` means the metric has no regression bound."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = statistics.median(change)
    gain = sign * (c_median - p_median)
    if bound == 0:
        if len(set(parent)) > 1 or len(set(change)) > 1:
            return "unresolved"
        return "better" if gain > 0 else "worse" if gain < 0 else "unchanged"
    pairs = list(zip(parent, change))
    enough = len(pairs) >= MIN_PAIRS
    needed = math.ceil(0.9 * len(pairs))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if enough and wins >= needed and gain > p_q3 - p_q1:
        return "better"
    if bound is None:
        # Without a bound, a regression must pass the mirror of the
        # gain rule.
        losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
        if enough and losses >= needed and -gain > p_q3 - p_q1:
            return "worse"
        return "unchanged"
    scale = abs(p_median)
    if -gain > bound * scale:
        return "worse"
    dominates = all(sign * (c - p) > 0 for p in parent for c in change)
    if p_q3 - p_q1 > bound * scale and not dominates:
        return "unresolved"
    return "unchanged"
