"""Planar diagrams: realizing DT codes and braid closures as embedded
4-valent diagrams.

A diagram is a list of crossings.  Each crossing stores the four
incident edge ids in counterclockwise rotation order, the rotation
slots (an opposite pair) carried by the over-strand, and the crossing
sign.  Every edge id appears exactly twice in the whole diagram.

Construction labels edges by traversal: passage t (0-based) enters on
edge t and leaves on edge t+1 (mod 2c), so ``codes.Basepoint`` edge k
is planar-diagram edge k.  Realization picks, at every crossing, which
way the second strand crosses the first.  These choices are a
2-colouring of the interlacement graph of the code (crossings joined
when their passages alternate along the traversal, with the pairing and
the interlacement masks taken from ``codes``), read off in one
polynomial pass that also decides planarity.  ``is_realizable`` and the
enumeration in ``search`` stop after this pass; ``realize`` goes on to
one face count, which confirms the c+2 faces of a sphere embedding.
The colouring is unique up to flipping each component.  Each
component's lowest crossing takes the first choice, and when that makes
crossing 1 negative every bit is flipped, which gives the mirror
embedding with crossing 1 positive.

Sign convention: a crossing is positive when the under-strand's inbound
slot immediately follows the over-strand's inbound slot counterclockwise.
Braid letters (i, +1) then produce positive crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, _closure_walk
from .codes import DTCode, GaussCode, OVER, UNDER, _dt_chords, _interlacement, gauss_to_dt


class NotRealizable(ValueError):
    """The pairing admits no planar embedding."""


@dataclass(frozen=True)
class Crossing:
    edges: tuple[int, int, int, int]
    over: tuple[int, int]
    sign: int

    def __post_init__(self):
        if tuple(sorted(self.over)) not in ((0, 2), (1, 3)):
            raise ValueError("over-strand slots must be an opposite pair")
        if self.sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")


@dataclass(frozen=True)
class PlanarDiagram:
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        counts: dict[int, int] = {}
        for x in self.crossings:
            for e in x.edges:
                counts[e] = counts.get(e, 0) + 1
        bad = [e for e, n in counts.items() if n != 2]
        if bad:
            raise ValueError(f"edge ids {sorted(bad)} do not appear exactly twice")

    @property
    def size(self) -> int:
        return len(self.crossings)


def _twins(rotations) -> dict[tuple[int, int], tuple[int, int]]:
    """The other end of each dart (crossing, slot) along its edge."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, rot in enumerate(rotations):
        for slot, e in enumerate(rot):
            ends.setdefault(e, []).append((ci, slot))
    twin = {}
    for a, b in ends.values():
        twin[a] = b
        twin[b] = a
    return twin


def count_faces(rotations: list[tuple[int, int, int, int]]) -> int:
    """Faces of the combinatorial map given by the rotation system."""
    twin = _twins(rotations)
    unseen = set(twin)
    faces = 0
    while unseen:
        faces += 1
        dart = next(iter(unseen))
        while dart in unseen:
            unseen.discard(dart)
            ci, slot = twin[dart]
            dart = (ci, (slot + 1) % 4)
    return faces


def writhe(diagram: PlanarDiagram) -> int:
    return sum(x.sign for x in diagram.crossings)


def _crossing(t1, t2, bit, first_over, n) -> Crossing:
    """The crossing passed at times t1 and t2, as edges in1, in2, out1,
    out2 round it; bit swaps in2 and out2, and first_over says whether
    the passage at t1 runs over."""
    return Crossing(
        (t1 % n, (t2 + bit) % n, (t1 + 1) % n, (t2 + 1 - bit) % n),
        (0, 2) if first_over else (1, 3),
        1 if first_over != bit else -1,
    )


def _orientation_bits(partner, masks) -> list[int] | None:
    """Per crossing, whether the second passage runs the other way round
    the first one (the bit ``_crossing`` swaps on); None if not planar.

    Crossings u and v interlace when exactly one of v's passage times lies
    strictly between u's; masks[2u] holds the crossings interlaced with u,
    crossing v as bit ``key[v]``, its first passage time.  By the
    Gauss-code criterion of Rosenstiehl (proved by de Fraysseix and
    Ossona de Mendez), the code is planar exactly when every
    non-interlaced pair shares an even number of interlaced crossings and
    the bits below solve consistently: across an interlaced pair they
    differ when the shared count is even and agree when it is odd.  Each
    component of the interlacement graph is coloured from its lowest
    crossing with bit 0, which gives the lexicographically first planar
    choice.
    """
    c = len(partner) // 2
    masks = masks[::2]
    key = [min(t, partner[t]) for t in range(0, 2 * c, 2)]

    bits: list[int | None] = [None] * c
    for root in range(c):
        if bits[root] is not None:
            continue
        bits[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            # v == u checks Gauss's even-interlacement condition, which
            # the odd/even labels of a DT code already guarantee
            for v in range(c):
                odd = (masks[u] & masks[v]).bit_count() & 1
                if not masks[u] >> key[v] & 1:
                    if odd:
                        return None
                    continue
                want = bits[u] ^ 1 ^ odd
                if bits[v] is None:
                    bits[v] = want
                    stack.append(v)
                elif bits[v] != want:
                    return None
    return bits


def realize(code: DTCode) -> PlanarDiagram:
    """Embed a DT code in the sphere, or raise NotRealizable.

    The result round-trips: extract_dt(realize(code)) == code.
    """
    c = code.crossings
    if c == 0:
        return PlanarDiagram(())
    partner, over = _dt_chords(code.entries)
    bits = _orientation_bits(partner, _interlacement(partner))
    if bits is None:
        raise NotRealizable(f"{code} admits no planar embedding")
    if not over[0]:
        # the mirror embedding, with crossing 1 positive
        bits = [bit ^ 1 for bit in bits]
    crossings = [_crossing(2 * i, partner[2 * i], bit, over[2 * i], 2 * c) for i, bit in enumerate(bits)]
    if count_faces([x.edges for x in crossings]) != c + 2:
        raise AssertionError(f"interlacement colouring of {code} is not planar")
    return PlanarDiagram(tuple(crossings))


def is_realizable(code: DTCode) -> bool:
    """Whether the code embeds in the sphere: realize's colouring alone."""
    partner = _dt_chords(code.entries)[0]
    return _orientation_bits(partner, _interlacement(partner)) is not None


def extract_gauss(diagram: PlanarDiagram) -> GaussCode:
    """Traverse the diagram structure and read off the Gauss sequence.

    The walk starts where construction placed the first passage: the
    slot entered by edge 0 and left by edge 1.
    """
    c = diagram.size
    if c == 0:
        return GaussCode(())
    start = next(((ci, slot) for ci, x in enumerate(diagram.crossings) for slot in range(4)
                  if x.edges[slot] == 0 and x.edges[(slot + 2) % 4] == 1), None)
    if start is None:
        raise ValueError("no traversal start: diagram edges are not labelled 0..2c-1")
    twin = _twins([x.edges for x in diagram.crossings])
    passages = []
    ci, slot = start
    for _ in range(2 * c):
        x = diagram.crossings[ci]
        passages.append((ci + 1, OVER if slot in x.over else UNDER))
        ci, slot = twin[ci, (slot + 2) % 4]
    return GaussCode(tuple(passages))


def extract_dt(diagram: PlanarDiagram) -> DTCode:
    return gauss_to_dt(extract_gauss(diagram))


def pd_from_braid(word: BraidWord) -> PlanarDiagram:
    """Planar diagram of the braid closure, edges labelled along the
    top-left traversal.  The passage entering a letter at its upper
    position runs over exactly when the letter is positive, so the sign
    rule of ``_crossing`` makes writhe the signed letter sum."""
    walk = _closure_walk(word)
    # time of each (letter position, role) passage
    times = {passage: t for t, passage in enumerate(walk)}
    crossings = []
    for k, (_, sign) in enumerate(word.letters, start=1):
        # the role of the passage entering at the upper position, then the lower
        upper, lower = (OVER, UNDER) if sign > 0 else (UNDER, OVER)
        crossings.append(_crossing(times[k, upper], times[k, lower], 0, sign > 0, len(walk)))
    if crossings and count_faces([x.edges for x in crossings]) != len(crossings) + 2:
        raise AssertionError("braid closure rotation system is not planar")
    return PlanarDiagram(tuple(crossings))
