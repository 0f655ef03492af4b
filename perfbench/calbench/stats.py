"""Percentiles as the benchmark reports them."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["LEVELS", "tail_level", "percentile"]

#: The percentiles a timing may be reported at, lowest first.
LEVELS = (50.0, 90.0, 99.0, 99.9, 99.99)


def tail_level(n: int) -> float:
    """The highest of :data:`LEVELS` with at least ten samples beyond it.

    With fewer than forty samples any tail would rest on a handful of
    values, so only the median (50) is reported.
    """
    best = LEVELS[0]
    if n < 40:
        return best
    for level in LEVELS:
        if n * (100.0 - level) / 100.0 >= 10.0 - 1e-9:
            best = level
    return best


def percentile(samples: Sequence[float], level: float) -> float:
    """Nearest-rank ``level`` percentile of ``samples``.

    Raises ``ValueError`` when ``level`` is beyond :func:`tail_level`,
    so a reported tail always has ten samples past it.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if level > tail_level(n):
        raise ValueError(
            f"p{level:g} needs ten samples beyond it; have {n} samples"
        )
    rank = math.ceil(level * n / 100.0 - 1e-9)  # smallest rank covering level %
    return sorted(samples)[min(n, max(1, rank)) - 1]
