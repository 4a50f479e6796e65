"""Arithmetic shared by the benchmark runner and its compare mode.

Everything here is pure: percentiles, quartiles, self time from nested
spans, failure counting and the verdict rule for comparing two sets of
runs.  Nothing here imports the package under test.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

# Candidate percentiles in tenths of a percent, highest first.
_LEVELS_PERMILLE = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def highest_percentile(n: int) -> float | None:
    """Highest standard percentile with at least ten of ``n`` samples beyond it.

    Returns ``None`` when even the median lacks ten samples above it.
    Integer arithmetic keeps the boundary exact: ``n = 1000`` gives 99.
    """
    for level in _LEVELS_PERMILLE:
        if n * (1000 - level) >= MIN_BEYOND * 1000:
            return level / 10.0
    return None


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct`` percent at or below it."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=None)
    if not ordered.size:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * ordered.size - 1e-9))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    values = list(values)
    if len(values) == 1:
        return float(values[0]), float(values[0]), float(values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    ``parent[i]`` is the index of span ``i``'s parent, or -1 for a root.
    Spans come from one thread, so the children of one parent never
    overlap each other; a child is clipped to its parent's interval
    before its length is subtracted.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    child = np.flatnonzero(parent >= 0)
    owner = parent[child]
    lo = np.maximum(start[child], start[owner])
    hi = np.minimum(end[child], end[owner])
    covered = np.bincount(owner, weights=np.clip(hi - lo, 0.0, None), minlength=start.size)
    return duration - covered


def count_failures(errors) -> tuple[int, int]:
    """``(attempted, failed)`` over passes, given each pass's error (``None`` if it passed)."""
    errors = list(errors)
    return len(errors), sum(1 for error in errors if error is not None)


def error_rate(errors) -> float:
    attempted, failed = count_failures(errors)
    return failed / attempted if attempted else 1.0


def verdict(base, change, better: str, bound: float | None) -> dict:
    """Compare one metric's runs on the parent (``base``) and a change.

    Runs pair up in order.  A change *improved* when it wins at least
    nine tenths of the pairs (ties count for neither side) and the
    medians differ, in its favour, by more than the parent's own
    interquartile distance.  Otherwise, when either side's relative
    spread exceeds ``bound`` the result is *unresolved*, unless every
    run of the change reads better than every run of the parent.  Left
    over: *worse* if the change's median is worse than the parent's by
    more than ``bound``, else *no worse*.  A metric without a bound gets
    no verdict past *improved*.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    base, change = list(base), list(change)
    pairs = list(zip(base, change))
    won = sum(1 for b, c in pairs if sign * (c - b) > 0)
    lost = sum(1 for b, c in pairs if sign * (c - b) < 0)
    b1, bmed, b3 = quartiles(base)
    c1, cmed, c3 = quartiles(change)
    gain = sign * (cmed - bmed)
    result = {"base": (b1, bmed, b3), "change": (c1, cmed, c3), "pairs": len(pairs),
              "won": won, "lost": lost}
    if pairs and won >= 0.9 * len(pairs) and gain > (b3 - b1):
        result["verdict"] = "improved"
    elif bound is None:
        result["verdict"] = "-"
    elif max(relative_spread(base), relative_spread(change)) > bound and not (
            min(change) > max(base) if sign > 0 else max(change) < min(base)):
        result["verdict"] = "unresolved"
    elif -gain > bound * abs(bmed):
        result["verdict"] = "worse"
    else:
        result["verdict"] = "no worse"
    return result
