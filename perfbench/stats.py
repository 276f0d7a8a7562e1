"""Order statistics for the benchmark's timings.

A percentile is reported only when at least ``MIN_BEYOND`` samples lie
beyond it; otherwise the run was too short to resolve that tail and the
helper refuses rather than report a number that is really one sample.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked for without enough samples beyond it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``values``.

    Raises :class:`TooFewSamples` unless ``MIN_BEYOND`` samples rank
    above the returned one.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {q}")
    data = sorted(values)
    n = len(data)
    rank = max(math.ceil(q * n), 1)  # 1-based nearest rank
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q * 100:g} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need {MIN_BEYOND} (run longer)"
        )
    return data[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)

