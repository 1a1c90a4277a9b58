"""Knot diagram codes: Dowker-Thistlethwaite sequences and Gauss sequences.

Conventions used throughout the package:

* A diagram with c crossings is traversed once, giving 2c passages that
  carry labels 1..2c in traversal order.  Each crossing is passed twice,
  once with an odd label and once with an even label.
* A DT code lists, for the odd labels 1, 3, ..., 2c-1 in order, the even
  label paired with each.  Crossing i is the crossing owning odd label
  2i-1.  A positive entry means the odd-labelled passage runs over; a
  negative entry means the even-labelled passage runs over.  Alternating
  diagrams are exactly the ones admitting an all-positive code.
* A Gauss sequence lists the 2c passages as (crossing-id, role) pairs,
  role "O" for an over-passage and "U" for an under-passage.
* Basepoints live on edges.  Edge k (0 <= k < 2c) is the arc entered
  after passage k-1 and ending at passage k, indices mod 2c, so forward
  traversal from edge k meets passage k first and backward traversal
  meets passage k-1 first.

Internally both formats decode once into chords over the passage
positions 0..2c-1 (labels minus one): ``partner[p]`` is the other
position of p's crossing and ``over[p]`` says whether the passage at p
runs over.  ``_dt_chords`` and ``_gauss_chords`` build them;
``_interlacement`` turns ``partner`` into one bitmask per position of
the chords interlaced with p's chord.  The conversions, the nugatory
test and ``embed.realize`` all read these arrays, and the enumeration in
``search`` builds them directly; ``DTCode`` and ``GaussCode`` stay the
validated public form.

Input is checked once, where it enters: every public constructor
(``DTCode``, ``GaussCode``, ``braid.BraidWord``) checks its fields, and so
do the parsers ``parse_dt``, ``parse_gauss`` and ``braid.parse_braid``
and ``embed.extract_gauss``, which reads a caller's planar diagram.  One
integer-token rule, ASCII digits as in ``_INTEGER``, serves every reader
of integers: the three parsers, the catalog's range, rc-crossing and
knot-name columns, and the terms of the Jones reference table.  A value
the package builds from checked values is valid by construction and is
built with ``_unchecked``, which skips ``__post_init__``: the closure
sequence of ``braid.closure_gauss``, the words of ``braid.parse_braid``
(without ``strands``) and ``braid.reduce_to_base``, the results of
``dt_to_gauss``, ``mirror`` and ``warp.apply_roller_coaster`` (one over
and one under passage per crossing), of ``gauss_to_dt`` once its framing
check passes, and the codes ``search.enumerate_alternating`` yields.
Re-checking those cost a fifth of the time of a braid item.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from importlib import resources

OVER = "O"
UNDER = "U"


# the token separator and the one integer-token form every reader
# accepts: ASCII digits, an optional minus sign, no "+", "_" or other
# Unicode digits
_SPLIT = re.compile(r"[,\s]+")
_INTEGER = re.compile(r"-?[0-9]+")


class FramingError(ValueError):
    """A Gauss sequence admits no odd/even crossing labelling."""


def _unchecked(cls, **fields):
    """A frozen dataclass value built without running ``__post_init__``,
    for values the package constructs valid from checked values.  The
    fields must already have the types the checked constructor gives."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


@dataclass(frozen=True)
class DTCode:
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        c = len(self.entries)
        seen = set()
        for e in self.entries:
            if e == 0:
                raise ValueError("DT entries must be nonzero even integers, got 0")
            if e % 2 != 0:
                raise ValueError(f"odd entry {e}: DT entries must be even integers")
            if abs(e) in seen:
                raise ValueError(f"duplicate DT entry magnitude {abs(e)}")
            seen.add(abs(e))
        if seen != set(range(2, 2 * c + 1, 2)):
            raise ValueError(f"DT entries must cover 2..{2 * c} exactly once, got {sorted(seen)}")

    @property
    def crossings(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return format_dt(self)


@dataclass(frozen=True)
class GaussCode:
    passages: tuple[tuple[int, str], ...]

    def __post_init__(self):
        # a list, not a generator: tuple(<genexpr>) leaves more peak memory behind
        passages = tuple([(int(i), r) for i, r in self.passages])
        object.__setattr__(self, "passages", passages)
        for _, role in passages:
            if role not in (OVER, UNDER):
                raise ValueError(f"bad strand role {role!r}")
        # with both roles valid, 2k distinct passages over k ids are one
        # over and one under per crossing
        if len(set(passages)) == len(passages) == 2 * len({ident for ident, _ in passages}):
            return
        roles: dict[int, list[str]] = {}
        for ident, role in passages:
            roles.setdefault(ident, []).append(role)
        for ident, rs in roles.items():
            if sorted(rs) != [OVER, UNDER]:
                raise ValueError(f"crossing {ident} must occur exactly once over and once under")

    @property
    def crossings(self) -> int:
        return len(self.passages) // 2

    def __str__(self) -> str:
        return format_gauss(self)


@dataclass(frozen=True)
class Basepoint:
    edge: int
    forward: bool = True

    def __str__(self) -> str:
        return f"edge {self.edge} {'forward' if self.forward else 'backward'}"


# ---------------------------------------------------------------------------
# parsing and formatting

def _strip_comment(line: str) -> str:
    """The part of a line before its first ``#``."""
    return line.split("#", 1)[0]


def _read_text(path, packaged: str | None = None) -> str:
    """The text of one input: stdin for ``-``, the file at ``path``, or
    the packaged data file named ``packaged`` when ``path`` is None."""
    if path is None:
        return resources.files("rollercoaster.data").joinpath(packaged).read_text(encoding="utf-8")
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def parse_dt(text: str) -> DTCode:
    """Parse a DT code from ``[4, 6, 2]`` or bare ``4 6 2`` form."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    tokens = [t for t in _SPLIT.split(body.strip()) if t]
    for tok in tokens:
        if not _INTEGER.fullmatch(tok):
            raise ValueError(f"malformed DT token {tok!r}")
    return DTCode(tuple(map(int, tokens)))


def format_dt(code: DTCode) -> str:
    return "[" + ", ".join(str(e) for e in code.entries) + "]"


def parse_gauss(text: str) -> GaussCode:
    """Parse a Gauss sequence of signed crossing ids, positive = over.

    ``1 -3 2 -1 3 -2`` is a trefoil.
    """
    tokens = [t for t in _SPLIT.split(text.strip()) if t]
    passages = []
    for tok in tokens:
        if not _INTEGER.fullmatch(tok):
            raise ValueError(f"malformed Gauss token {tok!r}")
        v = int(tok)
        if v == 0:
            raise ValueError("crossing ids must be nonzero")
        passages.append((abs(v), OVER if v > 0 else UNDER))
    return GaussCode(tuple(passages))


def format_gauss(code: GaussCode) -> str:
    return " ".join(str(i) if r == OVER else str(-i) for i, r in code.passages)


# ---------------------------------------------------------------------------
# chords: the integer form every conversion and test reads

def _dt_chords(entries) -> tuple[list[int], list[bool]]:
    """Passage pairing and over bits of a DT code: crossing i sits at
    positions 2i and ``abs(entries[i]) - 1``, and its odd-labelled passage
    runs over when the entry is positive."""
    n = 2 * len(entries)
    partner = [0] * n
    over = [False] * n
    for i, e in enumerate(entries):
        odd, even = 2 * i, abs(e) - 1
        partner[odd], partner[even] = even, odd
        over[odd], over[even] = e > 0, e < 0
    return partner, over


def _gauss_chords(passages) -> tuple[list[int], list[bool]]:
    """Passage pairing and over bits of a Gauss sequence."""
    partner = [0] * len(passages)
    first: dict[int, int] = {}
    for p, (ident, _) in enumerate(passages):
        q = first.setdefault(ident, p)
        partner[p], partner[q] = q, p
    return partner, [role == OVER for _, role in passages]


def _interlacement(partner) -> list[int]:
    """Per position p, the chords interlaced with p's chord: bit
    ``min(q, partner[q])`` is set when exactly one of chord q's positions
    lies strictly between p and ``partner[p]``."""
    # prefix[t]: chords met an odd number of times before position t
    prefix = [0]
    for p, q in enumerate(partner):
        prefix.append(prefix[-1] ^ (1 << (p if p < q else q)))
    return [
        prefix[q] ^ prefix[p + 1] if p < q else prefix[p] ^ prefix[q + 1]
        for p, q in enumerate(partner)
    ]


# ---------------------------------------------------------------------------
# conversions

def dt_to_gauss(code: DTCode) -> GaussCode:
    """Expand a DT code into its Gauss sequence.

    Crossing i sits at odd label 2i-1 and even label ``abs(entries[i-1])``.
    """
    partner, over = _dt_chords(code.entries)
    return _unchecked(GaussCode, passages=tuple([
        ((p if p % 2 == 0 else partner[p]) // 2 + 1, OVER if over[p] else UNDER)
        for p in range(len(partner))
    ]))


def gauss_to_dt(code: GaussCode) -> DTCode:
    """Collapse a Gauss sequence to a DT code with labels starting at the
    first listed passage.

    Raises FramingError when some crossing is met at two labels of equal
    parity; such sequences exist only for non-planar pairings.  Basepoint
    shifts and reversal keep the parity of every label pair, so a
    sequence that fails here fails from every basepoint.
    """
    partner, over = _gauss_chords(code.passages)
    for p, q in enumerate(partner):
        if p < q and (q - p) % 2 == 0:
            ident = code.passages[p][0]
            raise FramingError(f"crossing {ident} met at labels {p + 1} and {q + 1} of equal parity")
    # every chord now joins an even position to an odd one, so the
    # entries are the even labels 2..2c, each once
    return _unchecked(DTCode, entries=tuple([
        partner[p] + 1 if over[p] else -partner[p] - 1 for p in range(0, len(partner), 2)
    ]))


def mirror(code: GaussCode) -> GaussCode:
    """Flip over/under at every crossing."""
    flipped = tuple((i, UNDER if r == OVER else OVER) for i, r in code.passages)
    return _unchecked(GaussCode, passages=flipped)


# ---------------------------------------------------------------------------
# diagram reductions

def is_reduced(code: GaussCode) -> bool:
    """True when no crossing is nugatory.

    A crossing is nugatory exactly when no other crossing interlaces it:
    the passages strictly between its own two are closed under pairing,
    so removing it would disconnect the diagram there.
    """
    return all(_interlacement(_gauss_chords(code.passages)[0]))
