"""Latency summaries: the median and the tail percentile rule."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple

#: A tail percentile is reported only where at least this many samples
#: lie beyond it, so it is never a single outlier.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile, sample count)``.

    With the samples sorted, the k-th smallest (1-based) has ``n - k``
    samples above it, so the answer is the ``(n - 10)``-th smallest at
    percentile ``100 * (n - 10) / n``.  Fewer than 11 samples support no
    such percentile and raise :class:`ValueError`.
    """
    n = len(values)
    rank = n - TAIL_BEYOND
    if rank < 1:
        raise ValueError(
            f"{n} samples: a tail percentile needs at least "
            f"{TAIL_BEYOND + 1}"
        )
    ordered = sorted(values)
    return ordered[rank - 1], 100.0 * rank / n, n
