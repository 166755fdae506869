"""Nearest-rank percentiles and the ten-samples-beyond rule for tails."""

from __future__ import annotations

TAIL_BEYOND = 10  # a percentile is reported only with this many samples above it


def rank(n, pct):
    """1-based nearest rank of the pct-th percentile among n samples."""
    return max(1, -(-pct * n // 100))


def percentile(values, pct):
    """Nearest-rank percentile: the smallest sample with at least pct% of
    the samples at or below it."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), pct) - 1]


def beyond(n, pct):
    """How many of n samples rank above the nearest-rank pct-th percentile."""
    return n - rank(n, pct)


def tail_ok(n, pct):
    return beyond(n, pct) >= TAIL_BEYOND
