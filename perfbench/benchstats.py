"""Summary statistics the benchmark reports (stdlib only)."""

from __future__ import annotations

import math
import statistics

#: Percentiles considered for the tail figure, highest last.
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank p-th percentile of ``n`` samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail(values: list[float], min_beyond: int = 10) -> tuple[float, float] | None:
    """The highest percentile with at least ``min_beyond`` samples beyond it, and its value.

    ``None`` when even the median has fewer than ``min_beyond`` samples above it.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if samples_beyond(len(values), p) >= min_beyond:
            best = (p, percentile(values, p))
    return best


def summary(values: list[float]) -> dict[str, float | int | None]:
    """Median, tail percentile (when one qualifies) and sample count."""
    out: dict[str, float | int | None] = {"median": median(values), "samples": len(values)}
    t = tail(values)
    out["tail_percentile"] = None if t is None else t[0]
    out["tail_value"] = None if t is None else t[1]
    return out


def failed_fraction(failed: int, attempted: int) -> float:
    """Failed view-refinements ÷ attempted ones."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted
