"""Order statistics for the benchmark.

Percentiles use the nearest-rank rule: the q-th percentile of n sorted
samples is the sample at rank ceil(q*n/100). A percentile is resolved only
when at least ten samples lie beyond it, so p99 needs 1000 samples and p90
needs 100.
"""
import math

MIN_TAIL = 10


def rank(n, q):
    """1-based nearest rank of the q-th percentile among n samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q!r}")
    # round() first so that e.g. 99 * 1000 / 100 does not become 990.0000001
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(values, q):
    """Nearest-rank q-th percentile of an unsorted sequence."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n, q):
    """Number of samples strictly above the q-th percentile's rank."""
    return n - rank(n, q)


def resolved(n, q):
    """True when the q-th percentile has at least MIN_TAIL samples beyond it."""
    return n >= 1 and beyond(n, q) >= MIN_TAIL


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
