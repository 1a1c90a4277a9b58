"""Enumeration of reduced alternating diagrams at small crossing number.

An alternating diagram is encoded by an all-positive DT sequence, a
permutation of (2, 4, ..., 2c).  Two such codes describe the same diagram
up to basepoint shift, traversal reversal, or mirror image exactly when
their rotated/reversed codes agree after dropping signs; each class keeps
its lexicographically least all-positive member.  Odd basepoint shifts of
an alternating diagram flip every sign at once, which is why dropping
signs also merges mirrors.

The codes are filled in one entry at a time, and a prefix is dropped as
soon as it cannot be the least member of a reduced class.  Entry i is a
chord joining passage positions 2i and e_i - 1; its cyclic length is
min(d, 2c - d) with d = |e_i - 1 - 2i|, and the relabelling that reads
the code from an end of that chord along its short side starts with the
entry length + 1.  So:

* cut 1: the first entry e_0 runs over 4..c+1.  At 2 chord 0 is a kink,
  a nugatory crossing; past c+1 it is shorter the other way round, and
  the reading from its far end starts lower.
* cut 2: every later chord has cyclic length at least e_0 - 1, else the
  reading from its end starts below e_0.

Both cuts drop only codes that the leaf checks (least relabelling,
reduced) would reject, so the classes and their order are those of a
walk over all c! permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codes import DTCode, _dt_chords, _interlacement, _least_reading, dt_to_gauss
from .embed import _orientation_bits
from .warp import min_warp

MAX_CROSSINGS = 10  # c = 10 takes seconds, and each extra crossing costs about 8-12x


def _check_crossings(c: int, name: str = "crossing number") -> None:
    """Reject a crossing number outside 3..MAX_CROSSINGS before any search."""
    if not 3 <= c <= MAX_CROSSINGS:
        raise ValueError(f"{name} {c} outside supported range 3..{MAX_CROSSINGS}")


def _first_entries(c: int) -> range:
    """Cut 1: the first entries a class's least member can have."""
    return range(4, c + 2, 2)


def enumerate_alternating(c: int):
    """All reduced, realizable alternating diagrams with c crossings, one per
    class, yielded as found.  Free labels are tried in increasing order, so
    the classes come in lexicographic order."""
    _check_crossings(c)
    n = 2 * c
    entries = [0] * c
    free = [True] * (n + 1)  # free[e]: even label e is not yet an entry

    def extend(i: int, allowed: list[list[int]]):
        if i == c:
            partner = _dt_chords(entries)[0]
            masks = _interlacement(partner)
            if all(masks) and _orientation_bits(partner, masks) is not None:
                if _least_reading(partner):
                    yield DTCode(entries)
            return
        for e in allowed[i]:
            if free[e]:
                free[e], entries[i] = False, e
                yield from extend(i + 1, allowed)
                free[e] = True

    for e0 in _first_entries(c):
        # cut 2: per chord i, the labels that keep its cyclic length at least e0 - 1
        allowed = [
            [e for e in range(2, n + 1, 2) if e0 - 1 <= (e - 1 - 2 * i) % n <= n - e0 + 1]
            for i in range(c)
        ]
        free[e0], entries[0] = False, e0
        yield from extend(1, allowed)
        free[e0] = True


def a_min_warp(c: int) -> tuple[int, DTCode]:
    """Least minimum warping degree over the enumeration, with the first
    class that reaches it as witness."""
    degrees = ((min_warp(dt_to_gauss(code)).degree, code) for code in enumerate_alternating(c))
    return min(degrees, key=lambda pair: pair[0])


@dataclass(frozen=True)
class ConjectureRow:
    crossings: int
    computed: int
    predicted: int
    witness: DTCode

    @property
    def matches(self) -> bool:
        return self.computed == self.predicted


def conjecture_report(c_max: int) -> list[ConjectureRow]:
    """Diagram-level minimum warping against the ceiling-of-quarters prediction.

    The minimum here ranges over reduced alternating diagrams with exactly
    c crossings, which upper-bounds the knot-level quantity.  An
    out-of-range c_max is rejected before any row is computed.
    """
    _check_crossings(c_max)
    rows = []
    for c in range(3, c_max + 1):
        value, witness = a_min_warp(c)
        rows.append(ConjectureRow(c, value, math.ceil(c / 4), witness))
    return rows
