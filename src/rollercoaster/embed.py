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
the interlacement masks taken from ``codes``), read off prefix sums of
those masks in one pass over the crossings, O(c^2 / 64) machine words,
that also decides planarity.  ``is_realizable`` and the
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

from itertools import accumulate
from operator import xor

from .braid import BraidWord, closure_gauss
from .codes import (
    DTCode, GaussCode, OVER, UNDER, _Record, _check_int, _dt_chords, _fact, _interlacement, _unchecked, gauss_to_dt,
)


class NotRealizable(ValueError):
    """The pairing admits no planar embedding."""


class Crossing(_Record):
    edges: tuple[int, int, int, int]
    over: tuple[int, int]
    sign: int

    def __post_init__(self):
        if len(self.edges) != 4:
            raise ValueError(f"a crossing has four edge ids, got {len(self.edges)}")
        for e in self.edges:
            _check_int(e, "edge ids must be integers, got {!r}")
        for slot in self.over:
            _check_int(slot, "over-strand slots must be integers, got {!r}")
        if tuple(sorted(self.over)) not in ((0, 2), (1, 3)):
            raise ValueError("over-strand slots must be an opposite pair")
        _check_int(self.sign, "crossing sign must be +1 or -1, got {!r}")
        if self.sign not in (1, -1):
            raise ValueError("crossing sign must be +1 or -1")


class PlanarDiagram(_Record):
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

    @_fact
    def _twin(self) -> list[int]:
        """The diagram's one dart table: its face count, traversal and bracket read it."""
        return _twins([x.edges for x in self.crossings])


def _twins(rotations) -> list[int]:
    """The other end of each dart along its edge, dart 4*ci + slot being
    slot ``slot`` of crossing ci."""
    twin = [0] * (4 * len(rotations))
    first: dict[int, int] = {}  # edge id -> its dart met first
    for dart, e in enumerate(e for rot in rotations for e in rot):
        other = first.pop(e, None)
        if other is None:
            first[e] = dart
        else:
            twin[dart] = other
            twin[other] = dart
    return twin


def count_faces(rotations: list[tuple[int, int, int, int]]) -> int:
    """Faces of the combinatorial map given by the rotation system."""
    return _faces(_twins(rotations))


def _faces(twin: list[int]) -> int:
    """Faces of the map with dart table ``twin``, each left by the next slot counterclockwise."""
    seen = bytearray(len(twin))
    faces = 0
    for start in range(len(twin)):
        if seen[start]:
            continue
        faces += 1
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            dart = twin[dart]
            dart += -3 if dart & 3 == 3 else 1
    return faces


def writhe(diagram: PlanarDiagram) -> int:
    return sum(x.sign for x in diagram.crossings)


def _crossing(t1, t2, bit, first_over, n) -> Crossing:
    """The crossing passed at times t1 and t2, as edges in1, in2, out1,
    out2 round it; bit swaps in2 and out2, and first_over says whether
    the passage at t1 runs over."""
    # integer times and a 0/1 bit give a valid crossing
    return _unchecked(Crossing, edges=(t1 % n, (t2 + bit) % n, (t1 + 1) % n, (t2 + 1 - bit) % n),
                      over=(0, 2) if first_over else (1, 3), sign=1 if first_over != bit else -1)


def _built(crossings) -> PlanarDiagram:
    """The diagram of crossings ``_crossing`` built along one traversal,
    which enters and leaves each edge id once, after one face count
    confirms the c+2 faces of a sphere embedding."""
    diagram = _unchecked(PlanarDiagram, crossings=tuple(crossings))
    if crossings and _faces(diagram._twin) != len(crossings) + 2:
        raise AssertionError("built rotation system is not planar")
    return diagram


def _orientation_bits(partner, masks) -> list[int] | None:
    """Per crossing, whether the second passage runs the other way round
    the first one (the bit ``_crossing`` swaps on); None if not planar.

    Crossings u and v interlace when exactly one of v's passage times lies
    strictly between u's; masks[t] holds the crossings interlaced with the
    one passed at t, each as the bit of its first passage time, its key.
    By the Gauss-code criterion of Rosenstiehl (proved by de Fraysseix and
    Ossona de Mendez), the code is planar exactly when every
    non-interlaced pair shares an even number of interlaced crossings and
    the bits below solve consistently: across an interlaced pair they
    differ when the shared count is even and agree when it is odd.

    Both counts come from one row sum per crossing.  For u's passages
    p < q, ``rows`` XORs the masks at the times strictly between them.  A
    crossing passed twice there cancels out, so ``rows`` sums the masks of
    u's neighbours, and its bit at v is the parity of the count u and v
    share; at u itself it is the parity of u's degree, which the odd/even
    labels of a DT code keep even.  So the code is planar exactly when no
    ``rows`` has a bit outside its mask and each neighbour's bit is u's
    flipped, flipped back where ``rows`` is set.  Each component of the
    interlacement graph is coloured from its lowest crossing with bit 0,
    which gives the lexicographically first planar choice.  A crossing
    costs a fixed number of operations on 2c-bit ints, O(c^2 / 64) machine
    words in all.
    """
    n = len(partner)
    prefix = [0, *accumulate(masks, xor)]  # prefix[t]: the masks before t
    unseen = (1 << n) - 1
    ones = 0  # the keys of the crossings coloured 1
    for t in range(0, n, 2):
        todo = unseen & 1 << min(t, partner[t])  # coloured, rows not yet read
        unseen ^= todo
        while todo:
            low = todo & -todo
            p = low.bit_length() - 1
            mask = masks[p]
            rows = prefix[partner[p]] ^ prefix[p + 1]
            if rows & ~mask:
                return None
            want = mask & rows if ones & low else mask & ~rows
            new = mask & unseen
            unseen ^= new
            ones |= want & new
            if (ones ^ want) & mask:
                return None
            todo ^= low | new
    return [ones >> min(t, partner[t]) & 1 for t in range(0, n, 2)]


def realize(code: DTCode) -> PlanarDiagram:
    """Embed a DT code in the sphere, or raise NotRealizable.

    The result round-trips: extract_dt(realize(code)) == code.  Each
    component of the interlacement graph is oriented on its own, so a
    code whose graph is disconnected does not name one knot: the
    diagram can differ from the one the code was read from, by mirror
    image or otherwise.  The closure of the braid word ``2 4 3 1 2 2``
    is the trefoil with Jones polynomial t + t^3 - t^4, and its closure
    code [12, -10, 8, -6, -2, -4] realizes as the mirror trefoil.
    """
    c = code.crossings
    partner, over = _dt_chords(code.entries)
    bits = _orientation_bits(partner, _interlacement(partner))
    if bits is None:
        raise NotRealizable(f"{code} admits no planar embedding")
    if c and not over[0]:
        # the mirror embedding, with crossing 1 positive
        bits = [bit ^ 1 for bit in bits]
    return _built([_crossing(2 * i, partner[2 * i], bit, over[2 * i], 2 * c) for i, bit in enumerate(bits)])


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
    twin = diagram._twin
    passages = []
    ci, slot = start
    for _ in range(2 * c):
        x = diagram.crossings[ci]
        passages.append((ci + 1, OVER if slot in x.over else UNDER))
        ci, slot = divmod(twin[4 * ci + (slot + 2) % 4], 4)
    return GaussCode(tuple(passages))


def extract_dt(diagram: PlanarDiagram) -> DTCode:
    return gauss_to_dt(extract_gauss(diagram))


def pd_from_braid(word: BraidWord) -> PlanarDiagram:
    """Planar diagram of the braid closure, edges labelled along the
    top-left traversal.  The passage entering a letter at its upper
    position runs over exactly when the letter is positive, so the sign
    rule of ``_crossing`` makes writhe the signed letter sum."""
    walk = closure_gauss(word)[0].passages
    # time of each (letter position, role) passage
    times = {passage: t for t, passage in enumerate(walk)}
    crossings = []
    for k, (_, sign) in enumerate(word.letters, start=1):
        # the role of the passage entering at the upper position, then the lower
        upper, lower = (OVER, UNDER) if sign > 0 else (UNDER, OVER)
        crossings.append(_crossing(times[k, upper], times[k, lower], 0, sign > 0, len(walk)))
    return _built(crossings)
