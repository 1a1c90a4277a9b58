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

Both cuts drop only codes that the least-reading check would reject,
so the classes and their order are those of a walk over all c!
permutations.  A complete code is checked in order: least reading
first, since few leaves pass it (198 of 852 at c = 8) and, after cut
2, only the readings along chords of length e_0 - 1 can tie it; then
no nugatory crossing and a planar embedding, both read from the
interlacement masks, on those leaves alone.

The walk's only state is the chord array the leaf reads: ``partner[p]``
is the other passage position of p's crossing, so entry i is
``partner[2i] + 1`` and an odd position q is still free while
``partner[q]`` is None.  A ``DTCode`` is built for each class only.
"""

from __future__ import annotations

import math

from .codes import DTCode, _Record, _check_int, _interlacement, _unchecked, dt_to_gauss
from .embed import _orientation_bits
from .warp import min_warp

# the walk at c = 10 takes about 0.12 s (Python 3.11, 2 vCPUs), and each
# extra crossing costs about 8-12x
MAX_CROSSINGS = 10


def _check_crossings(c: int, name: str = "crossing number") -> None:
    """Reject a crossing number that is not an integer in
    3..MAX_CROSSINGS before any search."""
    _check_int(c, f"{name} must be an integer, got {{!r}}")
    if not 3 <= c <= MAX_CROSSINGS:
        raise ValueError(f"{name} {c} outside supported range 3..{MAX_CROSSINGS}")


def _first_entries(c: int) -> range:
    """Cut 1: the first entries a class's least member can have."""
    return range(4, c + 2, 2)


def _least_reading(partner) -> bool:
    """Whether the unsigned DT code read from position 0 forward, entry i
    being ``partner[2i] + 1``, is the least of the 4c unsigned codes of
    the diagram's readings.  Reading forward from passage p moves old
    position x to x - p, and reading backward from passage r moves it to
    r - x, both mod 2c; the new entry at even position q is then the new
    label of the partner of old position q + p, or of r - q.

    Precondition (cut 2): every chord has cyclic length at least
    ``short = partner[0]``.  A reading's entry 0 is one more than the
    length, counted in its direction, of the chord it starts along, and
    the code's is short + 1.  So only a reading along a chord (p, r)
    with (r - p) mod 2c == short ties the code there: forward from p or
    backward from r.  Walking every position p visits each chord from
    both ends, so a chord of length c, which ties both ways, gives all
    four of its readings.  Every other reading is larger at entry 0 and
    is skipped, as is the identity (forward from 0); the tied ones are
    compared from entry 1 and stop at the first entry that differs."""
    n = len(partner)
    short = partner[0]
    for p, r in enumerate(partner):
        if (r - p) % n == short:
            if p:
                for q in range(2, n, 2):
                    label = (partner[(q + p) % n] - p) % n
                    if label != partner[q]:
                        if label < partner[q]:
                            return False
                        break
            for q in range(2, n, 2):
                label = (r - partner[(r - q) % n]) % n
                if label != partner[q]:
                    if label < partner[q]:
                        return False
                    break
    return True


def enumerate_alternating(c: int):
    """All reduced, realizable alternating diagrams with c crossings, one per
    class, yielded as found.  Free labels are tried in increasing order, so
    the classes come in lexicographic order."""
    _check_crossings(c)
    n = 2 * c
    partner: list[int | None] = [None] * n

    def extend(i: int, allowed: list[list[int]]):
        if i == c:
            if _least_reading(partner):
                masks = _interlacement(partner)
                if all(masks) and _orientation_bits(partner, masks) is not None:
                    # each even position is paired with an odd one: a valid code
                    yield _unchecked(DTCode, entries=tuple([q + 1 for q in partner[::2]]))
            return
        for q in allowed[i]:
            if partner[q] is None:
                partner[2 * i], partner[q] = q, 2 * i
                yield from extend(i + 1, allowed)
                partner[q] = None

    for e0 in _first_entries(c):
        # cut 2: per chord i, the odd positions that keep its cyclic length at least e0 - 1
        allowed = [
            [q for q in range(1, n, 2) if e0 - 1 <= (q - 2 * i) % n <= n - e0 + 1]
            for i in range(c)
        ]
        partner[0], partner[e0 - 1] = e0 - 1, 0
        yield from extend(1, allowed)
        partner[e0 - 1] = None


def a_min_warp(c: int) -> tuple[int, DTCode]:
    """Least minimum warping degree over the enumeration, with the first
    class that reaches it as witness."""
    degrees = ((min_warp(dt_to_gauss(code)).degree, code) for code in enumerate_alternating(c))
    return min(degrees, key=lambda pair: pair[0])


class ConjectureRow(_Record):
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
