"""Warping degrees of based knot diagrams.

A traversal from a basepoint meets each crossing twice.  The crossings
whose first passage runs under form the below-set; the warping degree of
the based diagram is the size of that set.  Changing every below-set
crossing makes the diagram descending from that basepoint, which unknots
it, so the warping degree bounds the unknotting moves spent by the
traversal and the minimum over basepoints bounds the ascending number of
the underlying knot from above.

Moving a forward basepoint from edge k to edge k+1 makes passage k the
last one met instead of the first, so the degree rises by one when that
passage runs over and falls by one when it runs under.  Read backward
from edge k, the first passage of every crossing is its last one read
forward, so the backward below-set is the forward above-set and the
backward degree is c minus the forward one.  One pass along the sequence
therefore gives the degree at every basepoint in both directions.

So the least degree over both directions is v = min(lo, c - hi),
where lo and hi are the least and greatest forward degrees.  ``min_warp``
takes the first edge reaching it: the first forward degree equal to v,
or the first equal to c - v, read backward.  The smaller edge wins, and
forward wins a tie.

The below-set from edge 0 forward is a stored fact of the code,
``GaussCode._below``: ``warp_profile`` starts from its size, and
``warp_from`` returns it at that basepoint.  ``min_warp`` picks that
basepoint for every positive braid closure, whose top-left traversal has
the least degree, so one braid item builds the set once for
``braid.ab_counts``, ``warp_profile`` and ``warp_from``.  Any other
basepoint reads its own rotated sequence.
"""

from __future__ import annotations

from .codes import Basepoint, GaussCode, OVER, UNDER, _Record, _unchecked


class WarpResult(_Record):
    base: Basepoint
    below: frozenset[int]

    @property
    def degree(self) -> int:
        return len(self.below)


def warp_from(code: GaussCode, base: Basepoint) -> WarpResult:
    n = len(code.passages)
    if not 0 <= base.edge < n:
        raise ValueError(f"basepoint edge {base.edge} out of range for {n} passages")
    if base.edge == 0 and base.forward:
        return _unchecked(WarpResult, base=base, below=code._below)
    rotated = code.passages[base.edge:] + code.passages[:base.edge]
    # a dict keeps each key's last value: read backward, the forward order
    # leaves each crossing's first passage; read as is, its last, which is
    # the first passage backward from the edge
    first = dict(reversed(rotated) if base.forward else rotated)
    below = frozenset([i for i, role in first.items() if role == UNDER])
    return _unchecked(WarpResult, base=base, below=below)


def warp_profile(code: GaussCode, forward: bool = True) -> list[int]:
    """Warping degree at every edge basepoint, one traversal direction."""
    # edge 0 first: the code's stored below-set there
    degree = len(code._below)
    profile = []
    for _, role in code.passages:
        profile.append(degree)
        degree += 1 if role == OVER else -1
    return profile if forward else [code.crossings - d for d in profile]


def min_warp(code: GaussCode) -> WarpResult:
    """Minimal warping degree over all basepoints and both directions.

    Ties go to the smallest edge index, forward before backward.
    """
    if not code.passages:
        raise ValueError("empty Gauss sequence has no basepoint")
    c, profile = code.crossings, warp_profile(code)
    lo, hi = min(profile), max(profile)
    v = min(lo, c - hi)
    n = len(profile)
    forward = profile.index(v) if lo == v else n
    backward = profile.index(c - v) if c - hi == v else n
    return warp_from(code, _unchecked(Basepoint, edge=min(forward, backward), forward=forward <= backward))


def apply_roller_coaster(code: GaussCode, base: Basepoint) -> GaussCode:
    """Change every below-set crossing, making the diagram descending
    from ``base``: its warping degree there drops to zero."""
    below = warp_from(code, base).below
    flipped = tuple(
        (i, (UNDER if r == OVER else OVER) if i in below else r) for i, r in code.passages
    )
    return _unchecked(GaussCode, passages=flipped)
