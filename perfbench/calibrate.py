"""Machine-speed reference for scaling measured times.

The interpreter's speed on a shared host drifts by tens of percent over
minutes, far more than the changes the benchmark must resolve.  So next to
the timed work the benchmark runs short slices of fixed interpreter work
that no program change can touch, and reports times scaled to a nominal
machine on which one slice takes ``NOMINAL_S``:

    reported = measured * NOMINAL_S / median slice time

The speed swings by tens of percent within seconds, so the slices run
every half second of timed work, and each stretch of items is scaled by
the median of the slices at its two ends.

Raw, unscaled times are printed next to the result for comparison.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.010

_TABLE = tuple((i * 7) & 63 for i in range(64))


def _mix(a: int, b: int) -> int:
    return (a + b) & 63


def _work() -> int:
    """Calls, tuple indexing and small-int arithmetic.  It keeps no
    objects, so the program's heap cannot change its speed."""
    table, acc = _TABLE, 0
    for i in range(50000):
        k = i & 63
        acc = _mix(acc, table[k]) ^ table[(k + acc) & 63]
    return acc


def reference_slice() -> float:
    """Wall seconds one fixed slice of interpreter work takes right now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
