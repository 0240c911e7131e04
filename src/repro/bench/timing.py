"""Timing helpers for the experiment harness.

The paper executes each query three times and reports the shortest run
(to measure warm, memory-resident performance); :func:`best_of` does the
same.  Hardware cycle counters are replaced by ``perf_counter_ns`` — see
DESIGN.md's substitution table — so "cycles/tuple" becomes ns/tuple, a
monotone proxy with comparable ratios on one machine.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple


def best_of(fn: Callable[[], object], repeat: int = 3) -> Tuple[float, object]:
    """Run *fn* `repeat` times; return (best seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
    return best, result


def ns_per_tuple(seconds: float, ntuples: int) -> float:
    """Normalize a runtime by the number of processed tuples."""
    if ntuples <= 0:
        return float("nan")
    return seconds * 1e9 / ntuples


def ms(seconds: float) -> float:
    """Seconds → milliseconds."""
    return seconds * 1e3
