"""Planar diagrams: realizing DT codes and braid closures as embedded
4-valent diagrams.

A diagram is a list of crossings.  Each crossing stores the four
incident edge ids in counterclockwise rotation order, the rotation
slots (an opposite pair) carried by the over-strand, and the crossing
sign.  Every edge id appears exactly twice in the whole diagram.

Construction labels edges by traversal: edge k runs from passage k to
passage k+1 (mod 2c), so passage k enters on edge k-1 and leaves on
edge k.  Realization picks, at every crossing, which way the second
strand crosses the first.  These choices are a 2-colouring of the
interlacement graph of the code (crossings joined when their passages
alternate along the traversal), read off in one polynomial pass that
also decides planarity; one face count then confirms the c+2 faces of a
sphere embedding.  Each component's lowest crossing takes the first
choice (reflection is free) and the final embedding is reflected if
needed so that crossing 1 is positive.

Sign convention: a crossing is positive when the under-strand's inbound
slot immediately follows the over-strand's inbound slot counterclockwise.
Braid letters (i, +1) then produce positive crossings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, _closure_walk
from .codes import DTCode, GaussCode, OVER, UNDER, dt_to_gauss, gauss_to_dt


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


def count_faces(rotations: list[tuple[int, int, int, int]]) -> int:
    """Faces of the combinatorial map given by the rotation system."""
    ends: dict[int, list[tuple[int, int]]] = {}
    for ci, rot in enumerate(rotations):
        for slot, e in enumerate(rot):
            ends.setdefault(e, []).append((ci, slot))
    twin = {}
    for darts in ends.values():
        a, b = darts
        twin[a] = b
        twin[b] = a
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


def _passage_slot(rot, t, n):
    """Inbound rotation slot of the passage at time t: the slot carrying
    its in-edge with its out-edge opposite."""
    in_e, out_e = (t - 1) % n, t % n
    for s in range(4):
        if rot[s] == in_e and rot[(s + 2) % 4] == out_e:
            return s
    raise AssertionError("passage edges missing from rotation")


def _reflect(rotations, overs, signs):
    rotations = [tuple(rot[::-1]) for rot in rotations]
    overs = [tuple(sorted((3 - s) % 4 for s in ov)) for ov in overs]
    signs = [-s for s in signs]
    return rotations, overs, signs


def _orientation_bits(code: DTCode, times) -> list[int]:
    """Per crossing, whether the second passage runs the other way round
    the first one (the bit the rotations of realize swap on).

    Crossings u and v interlace when exactly one of v's passage times lies
    strictly between u's; masks[u] holds the crossings interlaced with u.
    By the Gauss-code criterion of Rosenstiehl (proved by de Fraysseix and
    Ossona de Mendez), the code is planar exactly when every
    non-interlaced pair shares an even number of interlaced crossings and
    the bits below solve consistently: across an interlaced pair they
    differ when the shared count is even and agree when it is odd.  Each
    component of the interlacement graph is coloured from its lowest
    crossing with bit 0, which gives the lexicographically first planar
    choice.
    """
    c = len(times)
    owner = [0] * (2 * c)
    for i, (t1, t2) in enumerate(times):
        owner[t1] = owner[t2] = i
    # prefix[t]: crossings met an odd number of times before time t
    prefix = [0]
    for i in owner:
        prefix.append(prefix[-1] ^ (1 << i))
    masks = [prefix[max(t1, t2)] ^ prefix[min(t1, t2) + 1] for t1, t2 in times]

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
                if not masks[u] >> v & 1:
                    if odd:
                        raise NotRealizable(f"{code} admits no planar embedding")
                    continue
                want = bits[u] ^ 1 ^ odd
                if bits[v] is None:
                    bits[v] = want
                    stack.append(v)
                elif bits[v] != want:
                    raise NotRealizable(f"{code} admits no planar embedding")
    return bits


def realize(code: DTCode) -> PlanarDiagram:
    """Embed a DT code in the sphere, or raise NotRealizable.

    The result round-trips: extract_dt(realize(code)) == code.
    """
    c = code.crossings
    if c == 0:
        return PlanarDiagram(())
    n = 2 * c
    # per crossing: (odd passage time, even passage time), 0-based
    times = [(2 * i, abs(entry) - 1) for i, entry in enumerate(code.entries)]

    def half_edges(t):
        return ((t - 1) % n, t % n)

    rotations = []
    for (t1, t2), bit in zip(times, _orientation_bits(code, times)):
        in1, out1 = half_edges(t1)
        in2, out2 = half_edges(t2)
        if bit:
            in2, out2 = out2, in2
        rotations.append((in1, in2, out1, out2))
    if count_faces(rotations) != c + 2:
        raise AssertionError(f"interlacement colouring of {code} is not planar")

    overs = []
    signs = []
    for (t1, t2), rot, entry in zip(times, rotations, code.entries):
        over_t, under_t = (t1, t2) if entry > 0 else (t2, t1)
        over_in = _passage_slot(rot, over_t, n)
        under_in = _passage_slot(rot, under_t, n)
        overs.append(tuple(sorted((over_in, (over_in + 2) % 4))))
        signs.append(1 if under_in == (over_in + 1) % 4 else -1)

    if signs[0] < 0:
        rotations, overs, signs = _reflect(rotations, overs, signs)
    # a list, not a generator: tuple(<genexpr>) leaves more peak memory behind
    return PlanarDiagram(
        tuple([Crossing(rot, ov, s) for rot, ov, s in zip(rotations, overs, signs)])
    )


def is_realizable(code: DTCode) -> bool:
    try:
        realize(code)
    except NotRealizable:
        return False
    return True


def extract_gauss(diagram: PlanarDiagram) -> GaussCode:
    """Traverse the diagram structure and read off the Gauss sequence.

    The walk starts where construction placed the first passage: the
    slot entered by the last edge id and left by edge 0.
    """
    c = diagram.size
    if c == 0:
        return GaussCode(())
    last = 2 * c - 1
    ends: dict[int, list[tuple[int, int]]] = {}
    start = None
    for ci, x in enumerate(diagram.crossings):
        for slot, e in enumerate(x.edges):
            ends.setdefault(e, []).append((ci, slot))
            if e == last and x.edges[(slot + 2) % 4] == 0 and start is None:
                start = (ci, slot)
    if start is None:
        raise ValueError("no traversal start: diagram edges are not labelled 0..2c-1")
    passages = []
    dart = start
    for _ in range(2 * c):
        ci, slot = dart
        x = diagram.crossings[ci]
        passages.append((ci + 1, OVER if slot in x.over else UNDER))
        out = (ci, (slot + 2) % 4)
        a, b = ends[x.edges[out[1]]]
        dart = b if a == out else a
    return GaussCode(tuple(passages))


def extract_dt(diagram: PlanarDiagram) -> DTCode:
    return gauss_to_dt(extract_gauss(diagram))


def pd_from_braid(word: BraidWord) -> PlanarDiagram:
    """Planar diagram of the braid closure, edges labelled along the
    top-left traversal.  writhe equals the signed letter sum."""
    walk = _closure_walk(word)
    n = len(walk)
    slot_times: dict[int, dict[bool, int]] = {}
    for t, (slot, upper) in enumerate(walk):
        slot_times.setdefault(slot, {})[upper] = t
    crossings = []
    rotations = []
    for k, (idx, sign) in enumerate(word.letters, start=1):
        t_u, t_l = slot_times[k][True], slot_times[k][False]
        rot = ((t_u - 1) % n, (t_l - 1) % n, t_u % n, t_l % n)
        over = (0, 2) if sign > 0 else (1, 3)
        rotations.append(rot)
        crossings.append(Crossing(rot, over, sign))
    if crossings and count_faces(rotations) != len(crossings) + 2:
        raise AssertionError("braid closure rotation system is not planar")
    return PlanarDiagram(tuple(crossings))
