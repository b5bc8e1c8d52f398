"""Order statistics and rate arithmetic (stdlib only, no numpy)."""

from __future__ import annotations

import math

# candidate tail percentiles, in tenths of a percent, highest first
_TAIL_PERMILLE = (999, 990, 900, 500)


def tail_percentile(n: int, min_beyond: int = 10) -> float | None:
    """Highest percentile of n samples that has at least ``min_beyond`` samples above it.

    Candidates are p99.9, p99, p90 and p50; None when even p50 has fewer.
    Integer arithmetic, so n = 10000 admits p99.9 exactly.
    """
    for q in _TAIL_PERMILLE:
        if n * (1000 - q) >= min_beyond * 1000:
            return q / 10.0
    return None


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of a non-empty sequence."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of an empty sequence")
    pos = (len(s) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def tail(values) -> tuple[float, float]:
    """(percentile used, value) for the tail rule; the maximum (100) when too few samples."""
    p = tail_percentile(len(values))
    if p is None:
        return 100.0, max(values)
    return p, percentile(values, p)


def fail_frac(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def points_per_s(points: int, wall_s: float) -> float:
    """Solved sequence points per second of wall time."""
    if wall_s <= 0.0:
        raise ValueError("wall time must be positive")
    return points / wall_s
