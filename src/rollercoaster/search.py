"""Enumeration of reduced alternating diagrams at small crossing number.

An alternating diagram is encoded by an all-positive DT sequence, so the
candidates at c crossings are the permutations of (2, 4, ..., 2c).  Two
candidates describe the same diagram up to basepoint shift, traversal
reversal, or mirror image exactly when their rotated/reversed codes agree
after dropping signs; each class keeps its lexicographically least
all-positive member.  Odd basepoint shifts of an alternating diagram flip
every sign at once, which is why dropping signs also merges mirrors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from itertools import permutations

from .codes import DTCode, dt_relabellings, dt_to_gauss, is_reduced
from .embed import is_realizable
from .warp import min_warp


def enumerate_alternating(c: int, cap: int = 10):
    """All reduced, realizable alternating diagrams with c crossings, one per
    class, yielded as found; permutations come in lexicographic order, so
    the classes do too."""
    if not 3 <= c <= cap:
        raise ValueError(f"crossing number {c} outside supported range 3..{cap}")
    for perm in permutations(range(2, 2 * c + 1, 2)):
        if any(tuple(map(abs, entries)) < perm for entries in dt_relabellings(perm)):
            continue
        code = DTCode(perm)
        if is_reduced(dt_to_gauss(code)) and is_realizable(code):
            yield code


def a_min_warp(c: int, cap: int = 10) -> tuple[int, DTCode]:
    """Least minimum warping degree over the enumeration, with a witness."""
    best = None
    witness = None
    for code in enumerate_alternating(c, cap=cap):
        degree = min_warp(dt_to_gauss(code)).degree
        if best is None or degree < best:
            best, witness = degree, code
    if best is None:
        raise ValueError(f"no reduced alternating diagrams at c={c}")
    return best, witness


@dataclass(frozen=True)
class ConjectureRow:
    crossings: int
    computed: int
    predicted: int
    witness: DTCode

    @property
    def matches(self) -> bool:
        return self.computed == self.predicted


def conjecture_report(c_max: int, cap: int = 10) -> list[ConjectureRow]:
    """Diagram-level minimum warping against the ceiling-of-quarters prediction.

    The minimum here ranges over reduced alternating diagrams with exactly
    c crossings, which upper-bounds the knot-level quantity.
    """
    rows = []
    for c in range(3, c_max + 1):
        value, witness = a_min_warp(c, cap=cap)
        rows.append(ConjectureRow(c, value, math.ceil(c / 4), witness))
    return rows
