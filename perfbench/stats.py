"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import statistics

# candidate tail percentiles, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile (numpy's default rule) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_samples: int):
    """Highest percentile in TAIL_PERCENTILES with at least ten samples beyond it.

    Returns None when even the median has fewer than ten samples above it.
    """
    for pct in TAIL_PERCENTILES:
        beyond_per_mille = round((100.0 - pct) * 10.0)  # integer: no rounding at the edge
        if n_samples * beyond_per_mille >= 10 * 1000:
            return pct
    return None


def relative_iqr(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")
