"""Order statistics for the benchmark's reports."""
from __future__ import annotations

import math
from typing import Sequence

# Candidates for the high percentile a timing is reported at, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def high_percentile(samples: Sequence[float]) -> tuple[float, float] | None:
    """(p, value) for the highest listed percentile with >= 10 samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    # The tolerance absorbs float rounding in 100 - p (for p = 99.9).
    allowed = [p for p in PERCENTILES if len(samples) * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9]
    if not allowed:
        return None
    return allowed[-1], percentile(samples, allowed[-1])
