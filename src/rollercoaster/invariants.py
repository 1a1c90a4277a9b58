"""Kauffman bracket and Jones polynomial of planar diagrams.

Polynomials are integer Laurent polynomials whose exponents count
quarter powers of t (so the substitution A = t^(-1/4) stays integral).
The bracket of the crossingless unknot is 1, a positive kink multiplies
it by -A^3, and the Jones polynomial is the bracket rescaled by
(-A^3)^(-writhe) with A = t^(-1/4); knots always land on integer powers
of t.

The bracket is contracted one crossing at a time over a planar frontier
(the tangle scheme of Bar-Natan, "Fast Khovanov homology computations",
restricted to the bracket): the placed crossings form a tangle whose
state is a map from boundary matchings to Laurent coefficients, so the
cost follows the number of matchings of the open edges rather than the
2^c smoothings.  Crossings are placed greedily to keep that boundary
short: next comes the crossing with the most open edges, the lowest
index on ties, taken from a heap of per-crossing open-edge counts in
O(c log c).  That placement is the one walk of the frontier: it records
the open edges after each step, the widest of which is the one size
limit, checked before any contraction, and hands each edge a small
integer slot while it is open, at most the widest frontier plus four of
them in all.  A state is a matching's partner list over those slots with
its polynomial, keyed by the partners of the open slots, read with one
``itemgetter`` in the order the walk recorded; gluing an arc is a few
list reads and writes.  The weights A^(+-1) * delta^k are a table
written out once, and sums and products run on plain coefficient dicts,
so ``Laurent`` has neither.
"""

from __future__ import annotations

import heapq
import re
from operator import itemgetter

from .codes import _BLANK, _INTEGER, _check_int, _read_lines, _strip_comment
from .embed import PlanarDiagram, writhe


class Laurent:
    """Laurent polynomial with integer exponents and coefficients, no zeros
    stored, with the operations the package uses: ``mirror``,
    ``eval_at_unit``, ``span`` and ``==``; no sum, difference, product,
    power or negation.  Its ``coeffs`` dict is mutable: no hash."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for e, c in coeffs.items():
            _check_int(e, "exponents must be integers, got {!r}")
            _check_int(c, "coefficients must be integers, got {!r}")
        self.coeffs = {e: c for e, c in coeffs.items() if c}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def mirror(self) -> "Laurent":
        """Substitute t -> 1/t (negate every exponent)."""
        return _laurent({-e: c for e, c in self.coeffs.items()})

    def eval_at_unit(self, u: int) -> int:
        """Value at t = u for u in {1, -1}; needs integer t-powers."""
        if u not in (1, -1):
            raise ValueError("only t = 1 and t = -1 are supported")
        total = 0
        for e, c in self.coeffs.items():
            if e % 4 != 0:
                raise ValueError("polynomial has fractional t-powers")
            total += c if (u == 1 or (e // 4) % 2 == 0) else -c
        return total

    def span(self) -> Fraction:
        """Difference of extreme t-exponents (0 for constants)."""
        from fractions import Fraction
        if not self.coeffs:
            return Fraction(0)
        return Fraction(max(self.coeffs) - min(self.coeffs), 4)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        from fractions import Fraction
        parts = []
        for e, c in sorted(self.coeffs.items()):
            if e == 0:
                body = str(abs(c))
            else:
                q = Fraction(e, 4)
                power = "t" if q == 1 else f"t^{q}" if q.denominator == 1 else f"t^({q})"
                body = power if abs(c) == 1 else f"{abs(c)}*{power}"
            parts.append(("- " if c < 0 else "+ ") + body)
        lead = parts[0].replace("+ ", "").replace("- ", "-")
        return " ".join([lead] + parts[1:])

    def __repr__(self) -> str:
        return f"Laurent({self.coeffs!r})"


def _laurent(coeffs: dict[int, int]) -> Laurent:
    """A ``Laurent`` of nonzero integer terms the package computed, unchecked."""
    poly = object.__new__(Laurent)
    poly.coeffs = coeffs
    return poly


# _WEIGHT[sign][k]: A^sign * delta^k, delta = -A^2 - A^-2, as (exponent,
# coeff) pairs, for the k <= 2 loops one crossing closes
_WEIGHT = {
    sign: (((sign, 1),), ((sign + 2, -1), (sign - 2, -1)), ((sign + 4, 1), (sign, 2), (sign - 4, 1)))
    for sign in (1, -1)
}
_MAX_FRONTIER = 16  # open edge ids; the contraction's cost follows their matchings


class BracketCapExceeded(ValueError):
    pass


def _smoothing_arcs(crossing, slots):
    """Both smoothings of the crossing whose rotation slots hold the
    frontier slots ``slots``: the A-smoothing, then the B-smoothing, each
    as its weights (A^(+-1) * delta^k, indexed by k) and the two slot
    pairs it joins.

    The A-smoothing joins each over-strand slot to its clockwise
    neighbour; this yields -A^3 for the positive kink.
    """
    p = crossing.over[0]
    s0, s1, s2, s3 = slots[p], slots[(p + 1) % 4], slots[(p + 2) % 4], slots[(p + 3) % 4]
    return (_WEIGHT[1], ((s0, s3), (s2, s1))), (_WEIGHT[-1], ((s0, s1), (s2, s3)))


def _crossing_order(diagram: PlanarDiagram):
    """Greedy placement order, the frontier after each placement and the
    slots of that frontier: next comes the crossing sharing the most edge
    ids with the open ones (met once so far), the lowest index on ties;
    ``frontiers[k]`` holds the ids open once ``order[k]`` is placed, in
    the order they opened.  This is the one walk of the frontier; the
    bracket keys its states on it.

    Each edge gets a small integer slot when it opens and gives it back
    once the crossing that closes it is placed, so a slot freed at a
    crossing is not handed out again at that crossing, and a kink's edge,
    which opens and closes there, keeps one slot for the whole step.  At
    most the widest frontier plus the four ends of one crossing are in
    use at once, and that bounds ``size``, the number of slots handed
    out.  ``steps[k]`` holds the frontier slots at ``order[k]``'s four
    rotation slots, the frontier slots that open at that step, and the
    frontier's slots in frontier order.

    Each unplaced crossing keeps its count of open edge ids.  Placing a
    crossing opens each of its edges not yet met and adds 1 to the count
    at that edge's far end, read through the dart twins; the edges it
    closes join it to placed crossings only, so no unplaced count ever
    falls.  A raised count is pushed anew on a heap keyed by one int,
    (4 - count) * c + index, so a crossing's newest entry comes off first
    and its older ones come off once it is placed, to be skipped: the
    order takes O(c log c).
    """
    crossings, twin = diagram.crossings, diagram._twin
    c = len(crossings)
    count = [0] * c
    placed = bytearray(c)
    heap = list(range(4 * c, 5 * c))  # count 0 at every crossing, already a heap
    open_slots: dict[int, int] = {}  # open edge id -> its slot, insertion-ordered
    free: list[int] = []  # slots given back at earlier steps
    size = 0
    order, frontiers, steps = [], [], []
    while heap:
        ci = heapq.heappop(heap) % c
        if placed[ci]:
            continue
        placed[ci] = 1
        order.append(ci)
        at, opened, closed = [], [], []
        for dart, e in enumerate(crossings[ci].edges, 4 * ci):  # a kink's edge id toggles twice here
            slot = open_slots.pop(e, None)
            if slot is None:
                if free:
                    slot = free.pop()
                else:
                    slot, size = size, size + 1
                open_slots[e] = slot
                opened.append(slot)
                other = twin[dart] >> 2  # ci itself on a kink: a skipped entry
                count[other] += 1
                # at most 4 open edges end at a crossing, one per dart, so
                # the key stays non-negative and % c gives the index back
                heapq.heappush(heap, (4 - count[other]) * c + other)
            else:
                closed.append(slot)
            at.append(slot)
        free += closed
        frontiers.append(tuple(open_slots))
        steps.append((at, opened, tuple(open_slots.values())))
    return order, frontiers, steps, size


def kauffman_bracket(diagram: PlanarDiagram) -> Laurent:
    """Bracket by frontier contraction, one crossing at a time.

    A state is a boundary matching of the placed crossings, as a partner
    list over the slots ``_crossing_order`` hands out (each open edge's
    slot holds the slot at the other end of its strand; the other entries
    are stale), with the summed weight A^(a-b) * delta^(closed loops) of
    its partial smoothings.  Every matching of a step has the same open
    slots, so a state is keyed by its partners, read with one
    ``itemgetter`` over the frontier's slots; lists of one key agree on
    every open slot, and the first is kept.  Placing a crossing sets each slot that opens there
    to itself, then glues its A-arcs (weight A) or B-arcs (weight A^-1)
    into a copy of every list: an arc (u, v) closes a loop when u's
    partner is v, and otherwise joins the partners of u and v.  The last
    step leaves no open slot and counts one loop fewer:
    A^(a-b) * delta^(loops-1).  The matchings grow with the frontier
    width, so an order opening more than _MAX_FRONTIER edges at once is
    rejected before any contraction.
    """
    c = diagram.size
    order, frontiers, steps, size = _crossing_order(diagram)
    width = max(map(len, frontiers), default=0)
    if width > _MAX_FRONTIER:
        raise BracketCapExceeded(f"frontier of {width} open edges exceeds the limit of {_MAX_FRONTIER}")

    states: dict = {(): ([0] * size, {0: 1})}  # key -> (partner list, polynomial)
    for step, (ci, (at, opened, after)) in enumerate(zip(order, steps)):
        loops0 = -1 if step == c - 1 else 0
        smoothings = _smoothing_arcs(diagram.crossings[ci], at)
        key = itemgetter(*after) if after else lambda partner: ()
        contracted: dict = {}
        for glued, poly in states.values():
            for s in opened:  # a reused slot may still hold a closed edge's partner
                glued[s] = s
            for weight, arcs in smoothings:
                partner = glued.copy()
                loops = loops0
                for u, v in arcs:
                    a = partner[u]
                    if a == v:
                        loops += 1
                    else:
                        b = partner[v]
                        partner[a] = b
                        partner[b] = a
                target = contracted.setdefault(key(partner), (partner, {}))[1]
                for e, k in weight[loops]:
                    for e0, c0 in poly.items():
                        target[e0 + e] = target.get(e0 + e, 0) + c0 * k
        states = contracted
    return _laurent({e: k for e, k in states[()][1].items() if k})


def jones(diagram: PlanarDiagram) -> Laurent:
    """Jones polynomial, normalized so the unknot gives 1.

    Exponents are quarter powers of t; knots give integer powers.  A^e of
    the bracket becomes (-1)^w t^((3w - e)/4), w being the writhe.
    """
    w = writhe(diagram)
    sign = -1 if w % 2 else 1
    return _laurent({3 * w - e: sign * c for e, c in kauffman_bracket(diagram).coeffs.items()})


# ---------------------------------------------------------------------------
# identification against a reference table

# a term list's items: runs of anything but ASCII blanks
_ITEM = re.compile(f"[^{_BLANK}]+")


def parse_jones_refs(lines) -> dict[str, Laurent]:
    refs: dict[str, Laurent] = {}
    for n, line in enumerate(lines, start=1):
        body = _strip_comment(line).strip(_BLANK)
        if not body:
            continue
        fields = [f.strip(_BLANK) for f in body.split(";")]
        if len(fields) < 2:
            raise ValueError(f"line {n}: expected 'name; exp:coeff ...; note'")
        name, terms = fields[0], fields[1]
        if not name:
            raise ValueError(f"line {n}: empty knot name")
        coeffs = {}
        for item in _ITEM.findall(terms):
            exp, _, coeff = item.partition(":")
            if not (_INTEGER.fullmatch(exp) and _INTEGER.fullmatch(coeff)):
                raise ValueError(f"line {n}: malformed term {item!r}")
            exp, coeff = int(exp), int(coeff)
            if exp in coeffs:
                raise ValueError(f"line {n}: duplicate exponent {exp}")
            coeffs[exp] = coeff
        if not coeffs:
            raise ValueError(f"line {n}: no terms")
        poly = Laurent(coeffs)
        if not poly:
            raise ValueError(f"line {n}: zero polynomial")
        if name in refs:
            raise ValueError(f"line {n}: duplicate reference entry {name}")
        refs[name] = poly
    return refs


def load_jones_refs(path=None) -> dict[str, Laurent]:
    """Reference Jones polynomials from ``path`` (``-`` for stdin);
    defaults to the packaged table."""
    return parse_jones_refs(_read_lines(path, "jones_refs.dat"))


def match_jones(poly: Laurent, refs: dict[str, Laurent]) -> list[str]:
    """Reference names whose polynomial equals poly up to t -> 1/t."""
    coeffs, mirrored = poly.coeffs, poly.mirror().coeffs
    return sorted(name for name, ref in refs.items() if ref.coeffs == coeffs or ref.coeffs == mirrored)
