"""Positive braid words, their closures, and crossing-count reductions.

Conventions:

* Strand positions are numbered 1 (top) to n (bottom).  A word is read
  left to right; letter (i, +1) crosses positions i and i+1 with the
  strand entering at position i passing over.  (i, -1) is the same
  crossing with the strand entering at position i passing under.
* The closure joins each right endpoint to the left endpoint at the
  same position, wrapping around behind the braid.
* Traversal of the closure starts at the top-left corner of position 1
  heading right.  Crossing ids in the closure Gauss sequence are the
  1-based letter positions of the word.

The counts (a, b) are read off the closure's Gauss code: the traversal
meets a crossings first from above and b first from below, the code's
stored below-set (``GaussCode._below``).  For a positive word
with c letters on n strands whose closure is a knot, every crossing is
met first one way or the other, so a + b = c and a - b = n - 1, that is
(a, b) = ((c + n - 1) / 2, (c - n + 1) / 2).  Smoothing an innermost
bigon drops both counts by one; resolving the first ascending strand's
crossing with its predecessor and removing the resulting closed strand
drops them by m+1 and m.  Iterating terminates at a word with n-1
letters, where b = 0.  The reduction takes its counts from that closed
form and finds each bigon by resuming one left-to-right scan where the
last smoothing left it, so it walks neither the closure nor the whole
word again per step.

The reduction is one generator of steps, which ``_reduction`` returns
once the word passes the knot and positivity checks.  It edits a single
letter list in place and hands that list out live at each step, so a
caller that prints each step as it comes (``braid reduce``) holds O(n)
memory on an n-letter word.  ``reduce_to_base`` is the list form over
it: it snapshots one ``BraidWord`` per step, O(n^2) on long words.  The
step records are named tuples, the word a frozen ``codes._Record``.

A word's closure facts, its knot order, closure Gauss code and
positivity, are computed once per word, on first use, and stored in the
frozen word's instance dict by ``codes._fact``.  So ``ab_counts``,
``closure_gauss``, ``positive_unknotting``, ``reduce_to_base`` and
``embed.pd_from_braid`` sweep a word's closure once between them, and
``closure_gauss`` returns the one stored ``GaussCode``, whose below-set
``ab_counts`` and ``warp`` then share.  The facts are not fields:
equality, hashing and repr ignore them.  The knot order is the one knot
gate: it checks the strand-count bound, walks the closure from position
1, and names a link's components by ``closure_components``, the one
component count.  A link's order raises, so a link stores nothing and
raises on every call.  The reduction reads only the order and
positivity, never the closure.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from itertools import islice
from typing import NamedTuple

from .codes import Basepoint, GaussCode, OVER, UNDER, _INTEGER, _SPLIT, _Record, _check_int, _fact, _unchecked


class BraidWord(_Record):
    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple((i, s) for i, s in self.letters))
        _check_int(self.strands, "strand count must be an integer, got {!r}")
        if self.strands < 1:
            raise ValueError("braid needs at least one strand")
        index = f"generator index {{!r}} out of range for {self.strands} strands"
        for idx, sign in self.letters:
            _check_int(idx, index)
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(index.format(idx))
            _check_int(sign, "letter sign must be +1 or -1, got {!r}")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    def is_positive(self) -> bool:
        return self._positive

    # the closure facts (module docstring), stored in the instance dict
    # on first use; a fact that raises stores nothing

    @_fact
    def _positive(self) -> bool:
        return all(s == 1 for _, s in self.letters)

    @_fact
    def _order(self) -> tuple[int, ...]:
        """The knot order of the closure (``_knot_order``), the one knot
        gate.  Each letter changes the number of permutation cycles by one,
        so n strands and c letters close into at least n - c components;
        that bound is checked before any per-strand work.  Raises
        ValueError for a link."""
        if self.strands > len(self.letters) + 1:
            raise ValueError(f"closure has at least {self.strands - len(self.letters)} components")
        order = _knot_order(_permutation(self))
        if len(order) != self.strands:
            raise ValueError(f"closure has {closure_components(self)} components")
        return tuple(order)

    @_fact
    def _closure(self) -> GaussCode:
        """The Gauss code of the closure (``_closure_walk``)."""
        # each letter is passed once from each position, one passage over
        return _unchecked(GaussCode, passages=tuple(_closure_walk(self)))

    def __str__(self) -> str:
        return _format_letters(self.letters)


def _format_letters(letters: Sequence[tuple[int, int]]) -> str:
    return " ".join(str(i * s) for i, s in letters) or "<empty>"


class Bigon(NamedTuple):
    """Two letter positions (0-based, i < j) where the same two strands
    cross, with no pair of strands crossing twice strictly between."""

    i: int
    j: int
    strands: tuple[int, int]


class RemovalCertificate(NamedTuple):
    """Witness for one strand-removal step: the letter position of the
    resolved crossing, the left-edge position of the removed strand, and
    the number m of crossings the removed strand passed over (equally,
    under)."""

    crossing: int
    strand: int
    m: int


MAX_BRAID_LETTERS = 100_000

# the generator form s<i>[^<p>]; a plain token, the form ``_INTEGER``
# takes, is checked with string methods: ASCII, then digits, as
# "²".isdigit() and "٣".isdigit() hold
_TOKEN = re.compile(rf"s([0-9]+)(?:\^({_INTEGER.pattern}))?")


def parse_braid(text: str) -> BraidWord:
    """Parse ``1 2 -1`` or ``s1 s2 s1^-1`` style words.

    The strand count is one more than the largest generator index named,
    zero powers included; a word whose closure is a knot fixes it so.
    Words that expand to more than MAX_BRAID_LETTERS letters are rejected
    before any power is expanded.
    """
    powers: list[tuple[tuple[int, int], int]] = []  # (letter, repeat count)
    length = top = 0
    for tok in _SPLIT.split(text):
        if not tok:
            continue
        digits = tok[1:] if tok[0] == "-" else tok
        if digits.isascii() and digits.isdigit():
            v = int(tok)
            idx, power = abs(v), 1 if v > 0 else -1
        else:
            match = _TOKEN.fullmatch(tok)
            if match is None:
                raise ValueError(f"malformed braid token {tok!r}")
            idx, power = match.groups()
            idx = int(idx)
            power = int(power) if power else 1
        if idx == 0:
            raise ValueError("generator index 0 is not allowed")
        if idx > top:
            top = idx
        count = abs(power)
        length += count
        powers.append(((idx, 1 if power > 0 else -1), count))
    if length > MAX_BRAID_LETTERS:
        raise ValueError(f"braid word expands to {length} letters, over the limit of {MAX_BRAID_LETTERS}")
    letters: list[tuple[int, int]] = []
    for letter, count in powers:
        letters += [letter] * count
    # every index lies in 1..top and every sign is +1 or -1
    return _unchecked(BraidWord, strands=top + 1, letters=tuple(letters))


# ---------------------------------------------------------------------------
# closure combinatorics

def _permutation(word: BraidWord) -> dict[int, int]:
    """Left-edge position -> right-edge position of the same strand."""
    # the knot gate's dense sweep, run past the strand bound; private, as
    # the engine's helpers are, so the benchmark's tracer counts it in its caller
    occupant = list(range(1, word.strands + 1))
    for idx, _ in word.letters:
        occupant[idx - 1], occupant[idx] = occupant[idx], occupant[idx - 1]
    return _right_edge(occupant)


def _right_edge(occupant: list[int]) -> dict[int, int]:
    """The permutation read off the strands at the right edge, with
    strands named by their left-edge position."""
    return {start: pos for pos, start in enumerate(occupant, start=1)}


def closure_components(word: BraidWord) -> int:
    """The number of closure components, the one count: the cycles of the
    closure permutation.  A word may have far more strands than letters,
    so only the positions some letter moves are swept; each other strand
    closes on itself."""
    # position -> the strand there on the right edge: the permutation's
    # inverse, which has its cycles
    moved: dict[int, int] = {}
    for idx, _ in word.letters:
        moved[idx], moved[idx + 1] = moved.get(idx + 1, idx + 1), moved.get(idx, idx)
    components, seen = word.strands - len(moved), set()
    for pos in moved:
        if pos not in seen:
            components += 1
            while pos not in seen:
                seen.add(pos)
                pos = moved[pos]
    return components


def _knot_order(perm: dict[int, int]) -> list[int]:
    """Strands in the order the closure traversal from position 1 meets
    them, up to its return to position 1."""
    order = [1]
    while perm[order[-1]] != 1:
        order.append(perm[order[-1]])
    return order


def _check_positive_knot(word: BraidWord) -> None:
    """The gate of the entry points that need a positive knot word and
    no passages: the knot order, then the positivity."""
    word._order  # raises for a link
    if not word._positive:
        raise ValueError("word is not positive")


def _closure_walk(word: BraidWord) -> list[tuple[int, str]]:
    """Passages of the closure traversal from the top-left corner, as
    (1-based letter position, OVER/UNDER) pairs.  The strand entering a
    letter at its upper position runs over exactly when the letter is
    positive.  Raises ValueError, as the knot gate does, when the
    closure is not a knot."""
    order = word._order
    occupant = list(range(1, word.strands + 1))
    visits: list[list[tuple[int, str]]] = [[] for _ in range(word.strands + 1)]
    for slot, (idx, sign) in enumerate(word.letters, start=1):
        upper, lower = occupant[idx - 1], occupant[idx]
        occupant[idx - 1], occupant[idx] = lower, upper
        visits[upper].append((slot, OVER if sign > 0 else UNDER))
        visits[lower].append((slot, UNDER if sign > 0 else OVER))
    walk: list[tuple[int, str]] = []
    for start in order:
        walk += visits[start]
    return walk


_TOP_LEFT = Basepoint(0, forward=True)


def closure_gauss(word: BraidWord) -> tuple[GaussCode, Basepoint]:
    """Gauss sequence of the closure, traversed from the top-left corner."""
    return word._closure, _TOP_LEFT


def ab_counts(word: BraidWord) -> tuple[int, int]:
    """(a, b): the crossings the top-left traversal of the closure meets
    first from above and first from below: the below-set of the closure's
    Gauss code from edge 0 forward gives b."""
    code = word._closure
    b = len(code._below)
    return (code.crossings - b, b)


def positive_unknotting(word: BraidWord) -> int:
    """(C - n + 1) / 2: the unknotting number, genus, and ascending
    number of the closure of a positive braid word."""
    _check_positive_knot(word)
    c, n = len(word.letters), word.strands
    if (c - n + 1) % 2:
        raise AssertionError("a knot closure has letters and strands of opposite parity")
    return (c - n + 1) // 2


# ---------------------------------------------------------------------------
# bigons

def _first_bigon(
    letters: Sequence[tuple[int, int]], occupant: list[int], last: dict[tuple[int, int], int], start: int
) -> Bigon | None:
    """The first innermost bigon whose right end is at or after letter
    ``start``, or None when no strand pair crosses twice.

    ``occupant`` holds the strand at each position, top first, just
    before letter ``start``; ``last`` maps the strand pair (smaller
    first) of each earlier letter to that letter, all pairs distinct.
    The scan updates both in place up to the bigon's right end, which it
    leaves out of ``last``.  While every pair seen so far is distinct,
    the first repeated pair joins two letters with no bigon between
    them, so that bigon is innermost."""
    for j, (idx, _) in enumerate(islice(letters, start, None), start):
        upper, lower = occupant[idx - 1], occupant[idx]
        occupant[idx - 1], occupant[idx] = lower, upper
        key = (upper, lower) if upper < lower else (lower, upper)
        if key in last:
            return Bigon(last[key], j, key)
        last[key] = j
    return None


# ---------------------------------------------------------------------------
# strand removal

def _remove_strand(
    letters: Sequence[tuple[int, int]], perm: dict[int, int], crossing_of: dict[tuple[int, int], int]
) -> tuple[list[tuple[int, int]], RemovalCertificate]:
    """The strand removal on a positive bigon-free word with closure
    permutation ``perm``, where ``crossing_of`` maps each strand pair
    (smaller first) to the one letter where it crosses.  Returns the
    letters of the smaller word and the certificate."""
    order = _knot_order(perm)

    # the last strand returns to position 1, so some strand ascends
    first_up = next(t for t in range(1, len(perm)) if perm[order[t]] < order[t])
    prev_start, cur_start = order[first_up - 1], order[first_up]

    resolved = crossing_of.get((min(prev_start, cur_start), max(prev_start, cur_start)))
    if resolved is None:
        raise AssertionError(f"strands {prev_start} and {cur_start} never cross")

    # walk the strand that becomes closed once `resolved` is smoothed
    pos = cur_start
    heights = []
    involved = []
    overs = 0
    for slot, (idx, _) in enumerate(letters):
        heights.append(pos)
        if pos in (idx, idx + 1):
            if slot == resolved:
                continue
            involved.append(slot)
            if pos == idx:
                overs += 1
                pos = idx + 1
            else:
                pos = idx
    if pos != cur_start or 2 * overs != len(involved):
        raise AssertionError("removed strand must close at its height, over as often as under")
    m = len(involved) // 2

    dropped = set(involved) | {resolved}
    kept = [
        (idx - 1 if idx > heights[slot] else idx, sign)
        for slot, (idx, sign) in enumerate(letters)
        if slot not in dropped
    ]
    return kept, RemovalCertificate(crossing=resolved, strand=cur_start, m=m)


class ReductionStep(NamedTuple):
    action: str
    detail: Bigon | RemovalCertificate
    counts_before: tuple[int, int]
    counts_after: tuple[int, int]
    word: BraidWord


def _reduction(word: BraidWord) -> Iterator[tuple]:
    """The steps that smooth bigons and remove ascending strands until
    n-1 letters remain, where b = 0 and a = n - 1.  Raises ValueError when
    called, before any step, on a word that closes to a link or is not
    positive; otherwise returns the generator of the steps."""
    _check_positive_knot(word)
    return _steps(list(word.letters), word.strands)


def _steps(letters: list[tuple[int, int]], n: int) -> Iterator[tuple]:
    """Yield (action, detail, counts_before, counts_after, strands,
    letters) per step of the reduction of a positive knot word, where
    ``letters`` is the live letter list, valid until the next step."""
    c = len(letters)
    a, b = (c + n - 1) // 2, (c - n + 1) // 2
    occupant, last, k = list(range(1, n + 1)), {}, 0
    while len(letters) > n - 1:
        # letters before k cross distinct strand pairs, recorded in `last`,
        # and `occupant` holds the strands just before letter k
        bigon = _first_bigon(letters, occupant, last, k)
        if bigon is not None:
            i, j = bigon.i, bigon.j
            # rewind the scan to just before letter i: letter j, left out of
            # `last`, shares letter i's pair, whose entry goes with letter j
            for slot in range(j, i - 1, -1):
                idx = letters[slot][0]
                lower, upper = occupant[idx - 1], occupant[idx]
                occupant[idx - 1], occupant[idx] = upper, lower
                if slot > i:
                    del last[(upper, lower) if upper < lower else (lower, upper)]
            del letters[i : j + 1 : j - i]  # letters i and j, moving the tail once
            action, detail, after, k = "smooth", bigon, (a - 1, b - 1), i
        else:
            kept, detail = _remove_strand(letters, _right_edge(occupant), last)
            n -= 1
            letters, occupant, last, k = kept, list(range(1, n + 1)), {}, 0
            action, after = "remove", (a - detail.m - 1, b - detail.m)
        yield action, detail, (a, b), after, n, letters
        a, b = after


def reduce_to_base(word: BraidWord) -> tuple[BraidWord, list[ReductionStep]]:
    """Smooth bigons and remove ascending strands until n-1 letters
    remain.  At that point b = 0 and a = n - 1.  Returns the base word and
    the list of steps, each with its own copy of the word.  Raises
    ValueError, before any step, on a word that closes to a link or is not
    positive."""
    current, steps = word, []
    for action, detail, before, after, n, letters in _reduction(word):
        current = _unchecked(BraidWord, strands=n, letters=tuple(letters))
        steps.append(ReductionStep(action, detail, before, after, current))
    return current, steps


# ---------------------------------------------------------------------------
# sampling

def random_positive_braid_knot(n_max: int, c_max: int, seed: int) -> BraidWord:
    """Deterministic positive braid word with knot closure, every
    generator used at least once, strands <= n_max, letters <= c_max."""
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    if c_max < n_max - 1:
        raise ValueError(f"c_max={c_max} cannot close a knot on up to {n_max} strands")
    import random
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, n_max)
        c = rng.randint(n - 1, c_max)
        letters = [(g, 1) for g in range(1, n)]
        letters += [(rng.randint(1, n - 1), 1) for _ in range(c - (n - 1))]
        rng.shuffle(letters)
        word = BraidWord(n, tuple(letters))
        if closure_components(word) == 1:
            return word
