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
short, and the widest boundary along that order is the one size limit,
checked before any contraction.
"""

from __future__ import annotations

from fractions import Fraction

from .codes import _INTEGER, _read_text, _strip_comment
from .embed import PlanarDiagram, writhe


class Laurent:
    """Laurent polynomial with integer coefficients, no zeros stored."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {int(e): int(c) for e, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def term(cls, coeff: int, exp: int) -> "Laurent":
        return cls({exp: coeff})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Laurent) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "Laurent") -> "Laurent":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Laurent(out)

    def __neg__(self) -> "Laurent":
        return Laurent({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "Laurent") -> "Laurent":
        return self + (-other)

    def __mul__(self, other: "Laurent") -> "Laurent":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return Laurent(out)

    def __pow__(self, k: int) -> "Laurent":
        if k < 0:
            raise ValueError("negative powers are not defined here")
        result = Laurent({0: 1})
        for _ in range(k):
            result = result * self
        return result

    def shift(self, k: int) -> "Laurent":
        """Multiply by the variable to the k-th quarter power."""
        return Laurent({e + k: c for e, c in self.coeffs.items()})

    def mirror(self) -> "Laurent":
        """Substitute t -> 1/t (negate every exponent)."""
        return Laurent({-e: c for e, c in self.coeffs.items()})

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
        if not self.coeffs:
            return Fraction(0)
        return Fraction(max(self.coeffs) - min(self.coeffs), 4)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
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


_DELTA = Laurent({2: -1, -2: -1})
ONE = Laurent({0: 1})
_MAX_FRONTIER = 16  # open edge ids; the contraction's cost follows their matchings


class BracketCapExceeded(ValueError):
    pass


class AmbiguousMatch(Exception):
    """Several reference knots share the computed Jones polynomial."""

    def __init__(self, names):
        self.names = tuple(names)
        super().__init__("ambiguous identification: " + ", ".join(self.names))


def _smoothing_arcs(crossing, use_a: bool):
    """Slot pairs joined by the A- or B-smoothing.

    The A-smoothing joins each over-strand slot to its clockwise
    neighbour; this yields -A^3 for the positive kink.
    """
    p = crossing.over[0]
    if use_a:
        return ((p, (p + 3) % 4), ((p + 2) % 4, (p + 1) % 4))
    return ((p, (p + 1) % 4), ((p + 2) % 4, (p + 3) % 4))


def _crossing_order(crossings) -> tuple[list[int], int]:
    """Greedy placement order and its frontier width: next comes the crossing
    sharing the most edge ids with the open ones (met once so far), the
    lowest index on ties; the width is the most ids open at once."""
    open_ids: set[int] = set()
    remaining = list(range(len(crossings)))
    order = []
    width = 0
    while remaining:
        best = max(remaining, key=lambda ci: (len(open_ids.intersection(crossings[ci].edges)), -ci))
        remaining.remove(best)
        order.append(best)
        for e in crossings[best].edges:  # a kink's edge id toggles twice here
            open_ids ^= {e}
        width = max(width, len(open_ids))
    return order, width


def kauffman_bracket(diagram: PlanarDiagram) -> Laurent:
    """Bracket by frontier contraction, one crossing at a time.

    The state maps each boundary matching of the placed crossings (the
    sorted items of its partner map, which sends each open edge id to the
    other end of its strand) to the summed weight A^(a-b) * delta^(closed
    loops) of its partial smoothings.  Placing a crossing glues its A-arcs
    (weight A) or its B-arcs (weight A^-1) into every matching; the last
    crossing leaves only the empty matching and counts one loop fewer,
    giving A^(a-b) * delta^(loops-1) per state.  The matchings grow with
    the frontier width, so an order opening more than _MAX_FRONTIER edges
    at once is rejected before any contraction.
    """
    c = diagram.size
    order, width = _crossing_order(diagram.crossings)
    if width > _MAX_FRONTIER:
        raise BracketCapExceeded(f"frontier of {width} open edges exceeds the limit of {_MAX_FRONTIER}")

    # weight[sign][k]: A^sign * delta^k as {exponent: coeff}, k <= 2 loops per crossing
    delta_pow = [ONE, _DELTA, _DELTA * _DELTA]
    weight = {sign: [d.shift(sign).coeffs for d in delta_pow] for sign in (1, -1)}
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for step, ci in enumerate(order):
        x = diagram.crossings[ci]
        last = step == c - 1
        smoothings = [
            (sign, [(x.edges[s1], x.edges[s2]) for s1, s2 in _smoothing_arcs(x, use_a)])
            for use_a, sign in ((True, 1), (False, -1))
        ]
        contracted: dict[tuple, dict[int, int]] = {}
        for matching, poly in states.items():
            for sign, arcs in smoothings:
                partner = dict(matching)
                loops = -1 if last else 0
                for u, v in arcs:
                    # an edge id met for the first time is its own far end
                    a = partner.pop(u, u)
                    partner.pop(a, None)
                    b = partner.pop(v, v)
                    partner.pop(b, None)
                    if a == b:
                        loops += 1
                    else:
                        partner[a] = b
                        partner[b] = a
                target = contracted.setdefault(tuple(sorted(partner.items())), {})
                for e, k in weight[sign][loops].items():
                    for e0, c0 in poly.items():
                        target[e0 + e] = target.get(e0 + e, 0) + c0 * k
        states = contracted
    return Laurent(states[()])


def jones(diagram: PlanarDiagram) -> Laurent:
    """Jones polynomial, normalized so the unknot gives 1.

    Exponents are quarter powers of t; knots give integer powers.
    """
    w = writhe(diagram)
    f = kauffman_bracket(diagram).shift(-3 * w)
    if w % 2:
        f = -f
    return f.mirror()


# ---------------------------------------------------------------------------
# identification against a reference table

def parse_jones_refs(lines) -> dict[str, Laurent]:
    refs: dict[str, Laurent] = {}
    for n, line in enumerate(lines, start=1):
        body = _strip_comment(line).strip()
        if not body:
            continue
        fields = [f.strip() for f in body.split(";")]
        if len(fields) < 2:
            raise ValueError(f"line {n}: expected 'name; exp:coeff ...; note'")
        name, terms = fields[0], fields[1]
        if not name:
            raise ValueError(f"line {n}: empty knot name")
        coeffs = {}
        for item in terms.split():
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
    return parse_jones_refs(_read_text(path, "jones_refs.dat").splitlines())


def match_jones(poly: Laurent, refs: dict[str, Laurent]) -> list[str]:
    """Reference names whose polynomial equals poly up to t -> 1/t."""
    mirrored = poly.mirror()
    return sorted(name for name, ref in refs.items() if ref == poly or ref == mirrored)


def identify(diagram: PlanarDiagram, refs: dict[str, Laurent]) -> str | None:
    """Name the diagram's knot by Jones polynomial, up to mirror image.

    Returns None when nothing matches and raises AmbiguousMatch when
    several reference knots share the polynomial.
    """
    names = match_jones(jones(diagram), refs)
    if not names:
        return None
    if len(names) > 1:
        raise AmbiguousMatch(names)
    return names[0]
