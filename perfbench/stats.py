"""Order statistics and failure accounting for the benchmark's report."""

from __future__ import annotations

import math

MIN_BEYOND = 10  # a reported percentile has at least this many samples above it


def rank(n: int, q: float) -> int:
    """Nearest-rank position (1-based) of the q-quantile among n samples."""
    if n < 1 or not 0 < q < 1:
        raise ValueError(f"no {q}-quantile of {n} samples")
    return max(1, math.ceil(q * n))


def beyond(n: int, q: float) -> int:
    """Samples that lie above the nearest-rank q-quantile."""
    return n - rank(n, q)


def fail_share(failed: int, attempted: int) -> float:
    """Operations that were wrong, raised or exited badly, per operation attempted."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failed of {attempted} attempted")
    return failed / attempted
