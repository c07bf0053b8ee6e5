"""Order statistics used by the benchmark's report."""

import math

TAIL_SAMPLES = 10  # a tail percentile needs this many samples beyond it


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q percent
    of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many samples lie strictly above the nearest-rank q-th percentile
    (counting positions, so ties do not matter)."""
    return count - max(1, math.ceil(q / 100 * count))


def has_tail(count: int, q: float) -> bool:
    """True when the q-th percentile has at least TAIL_SAMPLES beyond it."""
    return samples_beyond(count, q) >= TAIL_SAMPLES

