"""Order statistics shared by the benchmark and its summary script."""
from __future__ import annotations

import math
import statistics
from typing import Sequence

# a reported percentile must have at least this many samples above it
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share q
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of `count` samples lie above the nearest-rank q-percentile."""
    return count - math.ceil(q * count)


def tail_percentile(values: Sequence[float], q: float) -> float:
    """The q-percentile, refused when fewer than MIN_SAMPLES_BEYOND samples
    lie beyond it (such a tail is one or two unlucky samples)."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"{len(values)} samples leave {beyond} beyond p{round(q * 100)}; "
            f"need {MIN_SAMPLES_BEYOND}"
        )
    return percentile(values, q)


def spread(values: Sequence[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median), with
    quartiles as statistics.quantiles(values, n=4) gives them."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else math.inf
