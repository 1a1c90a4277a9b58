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
runs over.  ``_dt_chords`` builds both, ``_gauss_chords`` the pairing;
``_interlacement`` turns ``partner`` into one bitmask per position of
the chords interlaced with p's chord.  ``dt_to_gauss``, the nugatory
test and ``embed.realize`` read these arrays, and the enumeration in
``search`` builds them directly; ``gauss_to_dt`` pairs the passages in
its own single pass, writing each entry as its chord closes.
``DTCode`` and ``GaussCode`` stay the validated public form.

A record may also hold values derived from its fields, each computed on
first read and stored in its instance dict by ``_fact``, outside
equality, hash and repr: ``GaussCode._below``, the crossings whose first
passage from edge 0 forward runs under, which ``braid.ab_counts`` and
``warp`` read, ``braid.BraidWord``'s closure facts and
``embed.PlanarDiagram._twin``, a diagram's dart table.

Input is checked once, where it enters: every public constructor
(``DTCode``, ``GaussCode``, ``Basepoint``, ``braid.BraidWord``,
``catalog.Range`` and ``RCCrossing``, ``embed.Crossing``,
``invariants.Laurent``) checks its fields, and ``search`` its crossing
number, refusing a float, string or bool where an ``int`` belongs by the
one rule ``_check_int``; so do the parsers ``parse_dt``, ``parse_gauss``
and ``braid.parse_braid`` and ``embed.extract_gauss``, which reads a
caller's planar diagram.  One integer-token rule, ASCII digits as in
``_INTEGER``, serves every reader of integers: the three parsers, the
catalog's range, rc-crossing and knot-name columns, and the terms of the
Jones reference table.  The same readers take only ASCII whitespace,
``_BLANK``, around and between tokens.  A value the package builds from
checked values is valid by construction and is built with
``_unchecked``, which skips ``__post_init__``: the closure code that
``braid.closure_gauss`` returns, the words of ``braid.parse_braid`` and
``braid.reduce_to_base`` (the latter built inline by the reduction loop,
one per step, as ``_unchecked`` builds them, and each step record and
bigon with ``tuple.__new__``, past the named tuple's own ``__new__``),
the results of ``dt_to_gauss``, ``mirror`` and
``warp.apply_roller_coaster`` (one over and one under passage per
crossing), of ``gauss_to_dt`` once its framing check passes, the code
``warp.warp_from`` reads from its basepoint and its ``WarpResult``, the
``Basepoint`` that ``warp.min_warp`` picks (an edge index of the
profile), the crossings and diagrams of ``embed.realize`` and
``embed.pd_from_braid``, the codes ``search.enumerate_alternating``
yields and the ``catalog.RowReport``s; ``invariants._laurent`` so builds
the package's polynomials.  Re-checking cost a fifth of a braid item.
"""

from __future__ import annotations

import re
import sys

OVER = "O"
UNDER = "U"


# the one blank every reader takes around and between tokens: ASCII
# whitespace, where str.split(), str.strip() and "\s" take any Unicode
# space
_BLANK = " \t\n\r\f\v"
# the token separator, and the one integer-token form every reader
# accepts: ASCII digits, an optional minus sign, no "+", "_" or other
# Unicode digits
_SPLIT = re.compile(f"[,{_BLANK}]+")
_INTEGER = re.compile(r"-?[0-9]+")


class FramingError(ValueError):
    """A Gauss sequence admits no odd/even crossing labelling."""


class _Record:
    """A frozen value: its fields are the names its class annotates, in
    order, kept in ``__match_args__``, and a class attribute gives a
    field's default.  The constructor takes them by position or by name and
    runs ``__post_init__``.  Equality, hash and repr read the fields alone,
    as a frozen dataclass's do, so what a ``_fact`` stores stays unseen."""

    def __init_subclass__(cls):
        cls.__match_args__ = names = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        given = {**self._defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or kwargs.keys() - names[len(args):] or len(given) != len(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {', '.join(names)}")
        self.__dict__.update(given)
        self.__post_init__()

    def __post_init__(self):
        """The subclass's checks and normalisations."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__match_args__)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class _fact:
    """A value derived from a record's fields: computed on first read and
    written into the instance dict, which shadows this non-data descriptor
    from then on, so later reads take no lock and run no Python code
    (``functools.cached_property`` takes a class-wide lock on every first
    read before Python 3.12).  A fact that raises stores nothing."""

    def __init__(self, compute):
        self.compute, self.name = compute, compute.__name__

    def __get__(self, record, owner=None):
        if record is None:
            return self
        value = record.__dict__[self.name] = self.compute(record)
        return value


def _unchecked(cls, **fields):
    """A record built without ``__post_init__``, for values the package builds
    valid from checked values, with the field types the checks would give."""
    value = object.__new__(cls)
    value.__dict__.update(fields)
    return value


def _check_int(value, message: str) -> None:
    """The integer-field rule of every checked constructor: a float, string
    or bool ``value`` is refused, not converted, with ``message`` as the
    ValueError, the value's repr put in for its ``{!r}``."""
    if type(value) is not int:
        raise ValueError(message.format(value))


class DTCode(_Record):
    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        c = len(self.entries)
        seen = set()
        for e in self.entries:
            _check_int(e, "DT entries must be nonzero even integers, got {!r}")
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


class GaussCode(_Record):
    passages: tuple[tuple[int, str], ...]

    def __post_init__(self):
        # a list, not a generator: tuple(<genexpr>) leaves more peak memory behind
        passages = tuple([(i, r) for i, r in self.passages])
        object.__setattr__(self, "passages", passages)
        roles: dict[int, list[str]] = {}
        for ident, role in passages:
            _check_int(ident, "crossing ids must be integers, got {!r}")
            if role not in (OVER, UNDER):
                raise ValueError(f"bad strand role {role!r}")
            roles.setdefault(ident, []).append(role)
        for ident, rs in roles.items():
            if sorted(rs) != [OVER, UNDER]:
                raise ValueError(f"crossing {ident} must occur exactly once over and once under")

    @property
    def crossings(self) -> int:
        return len(self.passages) // 2

    @_fact
    def _below(self) -> frozenset[int]:
        """The crossings whose first passage from edge 0 forward runs
        under: the one first-passage reading (``warp.warp_from``)."""
        # a dict keeps each key's last value, so the reversed sequence
        # leaves each crossing's first role
        return frozenset([i for i, role in dict(reversed(self.passages)).items() if role == UNDER])

    def __str__(self) -> str:
        return format_gauss(self)


class Basepoint(_Record):
    edge: int
    forward: bool = True

    def __post_init__(self):
        _check_int(self.edge, "basepoint edge must be an integer, got {!r}")

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
        from importlib import resources
        return resources.files("rollercoaster.data").joinpath(packaged).read_text(encoding="utf-8")
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _read_lines(path, packaged: str | None = None) -> list[str]:
    """The lines of one input, broken at ``\\r\\n``, ``\\r`` and ``\\n``
    as a file opened in text mode is (stdin is not translated on POSIX),
    and nowhere else: ``str.splitlines`` also breaks at ``\\x1c``-``\\x1e``,
    ``\\x85``, ``\\u2028`` and ``\\u2029``, which a note or field may hold."""
    return _read_text(path, packaged).replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_dt(text: str) -> DTCode:
    """Parse a DT code from ``[4, 6, 2]`` or bare ``4 6 2`` form."""
    body = text.strip(_BLANK)
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    tokens = [t for t in _SPLIT.split(body) if t]
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
    tokens = [t for t in _SPLIT.split(text) if t]
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


def _gauss_chords(passages) -> list[int]:
    """Passage pairing of a Gauss sequence."""
    partner = [0] * len(passages)
    first: dict[int, int] = {}
    for p, (ident, _) in enumerate(passages):
        q = first.setdefault(ident, p)
        partner[p], partner[q] = q, p
    return partner


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
    passages = code.passages
    entries = [0] * (len(passages) // 2)
    first: dict[int, int] = {}
    bad = None  # the equal-parity chord with the least first position
    # one pass: at each crossing's second position q, its chord (p, q) is
    # complete, and its entry goes at the chord's even position
    for q, (ident, role) in enumerate(passages):
        p = first.setdefault(ident, q)
        if p == q:
            continue
        if (q - p) % 2 == 0:
            if bad is None or p < bad[0]:
                bad = (p, q)
        elif q % 2:
            entries[p // 2] = q + 1 if passages[p][1] == OVER else -q - 1
        else:
            entries[q // 2] = p + 1 if role == OVER else -p - 1
    if bad is not None:
        p, q = bad
        raise FramingError(f"crossing {passages[p][0]} met at labels {p + 1} and {q + 1} of equal parity")
    # every chord joins an even position to an odd one, so the entries are
    # the even labels 2..2c, each once
    return _unchecked(DTCode, entries=tuple(entries))


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
    return all(_interlacement(_gauss_chords(code.passages)))
