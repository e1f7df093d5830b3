"""Sample statistics shared by every workload of the benchmark.

A timing is reported as its median plus the highest percentile that still
has at least ten samples beyond it, together with the sample count (so a
p99 needs 1000 samples; three campaign repeats give a median only).
"""

from __future__ import annotations

import math
import re
import statistics

#: Percentiles tried, highest first, by :func:`high_percentile`.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_name(name: str) -> bool:
    """Metric/workload name rule: letters, digits, ``_``, ``.``, ``-``;
    starts with a letter or digit; at most 64 characters."""
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` samples (the
    epsilon keeps 99.9% of 10000 at rank 9990 despite float rounding)."""
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return float(ordered[_rank(q, len(ordered)) - 1])


def high_percentile(values) -> tuple[float, float] | None:
    """The highest percentile in :data:`PERCENTILES` with at least
    :data:`MIN_BEYOND` samples strictly above its rank, as ``(q, value)``;
    None when the sample is too small for any of them."""
    n = len(values)
    for q in PERCENTILES:
        if n - _rank(q, n) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def summarize(values) -> dict:
    """``{"median", "n", "high": (q, value) | None}`` for one metric."""
    values = [float(v) for v in values]
    return {
        "median": median(values),
        "n": len(values),
        "high": high_percentile(values),
    }
