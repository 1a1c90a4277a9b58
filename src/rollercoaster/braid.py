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

The counts (a, b) are read off the closure walk: the traversal meets a
crossings first from above and b first from below.  For a positive word
whose closure is a knot, a - b = n - 1 always holds.  Smoothing an
innermost bigon drops both counts by one; resolving the first ascending
strand's crossing with its predecessor and removing the resulting closed
strand drops them by m+1 and m.  Iterating terminates at a word with n-1
letters, where b = 0.
"""

from __future__ import annotations

import random
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from .codes import Basepoint, GaussCode, OVER, UNDER


@dataclass(frozen=True)
class BraidWord:
    strands: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple((int(i), int(s)) for i, s in self.letters))
        if self.strands < 1:
            raise ValueError("braid needs at least one strand")
        for idx, sign in self.letters:
            if not 1 <= idx <= self.strands - 1:
                raise ValueError(f"generator index {idx} out of range for {self.strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"letter sign must be +1 or -1, got {sign}")

    def is_positive(self) -> bool:
        return all(s == 1 for _, s in self.letters)

    def __str__(self) -> str:
        return " ".join(str(i * s) for i, s in self.letters) or "<empty>"


@dataclass(frozen=True)
class Bigon:
    """Two letter positions (0-based, i < j) where the same two strands
    cross, with no pair of strands crossing twice strictly between."""

    i: int
    j: int
    strands: tuple[int, int]


@dataclass(frozen=True)
class RemovalCertificate:
    """Witness for one strand-removal step: the letter position of the
    resolved crossing, the left-edge position of the removed strand, and
    the number m of crossings the removed strand passed over (equally,
    under)."""

    crossing: int
    strand: int
    m: int


MAX_BRAID_LETTERS = 100_000

_TOKEN = re.compile(r"^(?:(-?\d+)|s(\d+)(?:\^(-?\d+))?)$")


def parse_braid(text: str, strands: int | None = None) -> BraidWord:
    """Parse ``1 2 -1`` or ``s1 s2 s1^-1`` style words.

    Strand count defaults to one more than the largest generator index.
    Words that expand to more than MAX_BRAID_LETTERS letters are rejected
    before any power is expanded.
    """
    powers: list[tuple[int, int]] = []  # (generator index, signed exponent)
    for tok in re.split(r"[,\s]+", text.strip()):
        if not tok:
            continue
        match = _TOKEN.match(tok)
        if match is None:
            raise ValueError(f"malformed braid token {tok!r}")
        if match.group(1) is not None:
            v = int(match.group(1))
            idx, power = abs(v), 1 if v > 0 else -1
        else:
            idx = int(match.group(2))
            power = int(match.group(3)) if match.group(3) else 1
        if idx == 0:
            raise ValueError("generator index 0 is not allowed")
        powers.append((idx, power))
    length = sum(abs(power) for _, power in powers)
    if length > MAX_BRAID_LETTERS:
        raise ValueError(f"braid word expands to {length} letters, over the limit of {MAX_BRAID_LETTERS}")
    letters = [(idx, 1 if power > 0 else -1) for idx, power in powers for _ in range(abs(power))]
    n = strands if strands is not None else max((i for i, _ in letters), default=0) + 1
    return BraidWord(n, tuple(letters))


# ---------------------------------------------------------------------------
# closure combinatorics

def _strand_pairs(word: BraidWord, occupant: list[int] | None = None) -> Iterator[tuple[int, int]]:
    """For each letter, built only when the scan reaches it, the two
    strands crossing there (upper first), with strands named by their
    left-edge position.  A given ``occupant`` list (the strand at each
    position, top first) ends up holding the strands at the right edge."""
    if occupant is None:
        occupant = list(range(1, word.strands + 1))
    for idx, _ in word.letters:
        upper, lower = occupant[idx - 1], occupant[idx]
        occupant[idx - 1], occupant[idx] = lower, upper
        yield upper, lower


def _sweep(word: BraidWord) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """For each letter, the two strands crossing there (upper first), and
    the permutation, with strands named by their left-edge position."""
    occupant = list(range(1, word.strands + 1))
    pairs = list(_strand_pairs(word, occupant))
    return pairs, {start: pos for pos, start in enumerate(occupant, start=1)}


def permutation(word: BraidWord) -> dict[int, int]:
    """Left-edge position -> right-edge position of the same strand."""
    return _sweep(word)[1]


def closure_components(word: BraidWord) -> int:
    perm = permutation(word)
    seen: set[int] = set()
    cycles = 0
    for start in perm:
        if start in seen:
            continue
        cycles += 1
        pos = start
        while pos not in seen:
            seen.add(pos)
            pos = perm[pos]
    return cycles


def _knot_order(perm: dict[int, int]) -> list[int]:
    """Strands in the order the closure traversal from position 1 meets
    them; raises when the traversal closes before meeting them all."""
    order = [1]
    while perm[order[-1]] != 1:
        order.append(perm[order[-1]])
    if len(order) != len(perm):
        raise ValueError("closure is a link, not a knot")
    return order


def _closure_walk(word: BraidWord) -> list[tuple[int, bool]]:
    """Passages of the closure traversal from the top-left corner, as
    (1-based letter position, entered-at-upper-position) pairs."""
    pairs, perm = _sweep(word)
    visits: dict[int, list[tuple[int, bool]]] = {start: [] for start in perm}
    for slot, (upper, lower) in enumerate(pairs, start=1):
        visits[upper].append((slot, True))
        visits[lower].append((slot, False))
    return [passage for start in _knot_order(perm) for passage in visits[start]]


def _runs_over(word: BraidWord, slot: int, upper: bool) -> bool:
    """Whether the closure passage at 1-based letter ``slot``, entered at
    the upper position or not, runs over there."""
    return upper == (word.letters[slot - 1][1] > 0)


def closure_gauss(word: BraidWord) -> tuple[GaussCode, Basepoint]:
    """Gauss sequence of the closure, traversed from the top-left corner."""
    walk = _closure_walk(word)
    passages = [(slot, OVER if _runs_over(word, slot, upper) else UNDER) for slot, upper in walk]
    return GaussCode(tuple(passages)), Basepoint(0, forward=True)


def ab_counts(word: BraidWord) -> tuple[int, int]:
    """(a, b): the crossings the top-left traversal of the closure meets
    first from above and first from below."""
    first = dict(reversed(_closure_walk(word)))  # letter position -> upper at its first visit
    a = sum(_runs_over(word, slot, upper) for slot, upper in first.items())
    return (a, len(first) - a)


def positive_unknotting(word: BraidWord) -> int:
    """(C - n + 1) / 2: the unknotting number, genus, and ascending
    number of the closure of a positive braid word."""
    if not word.is_positive():
        raise ValueError("word is not positive")
    if closure_components(word) != 1:
        raise ValueError("closure is a link, not a knot")
    c, n = len(word.letters), word.strands
    if (c - n + 1) % 2:
        raise AssertionError("a knot closure has letters and strands of opposite parity")
    return (c - n + 1) // 2


# ---------------------------------------------------------------------------
# bigons

def _innermost_bigons(pairs: Iterable[tuple[int, int]]) -> Iterator[Bigon]:
    """Innermost bigons from the per-letter strand pairs, yielded left to right.

    Each bigon joins a letter to the previous letter with the same two
    strands.  Scanning right ends in order, a bigon is innermost exactly
    when its left end lies right of every left end seen so far."""
    last: dict[tuple[int, int], int] = {}
    deepest = -1
    for j, pair in enumerate(pairs):
        key = (min(pair), max(pair))
        i = last.get(key, -1)
        last[key] = j
        if i > deepest:
            deepest = i
            yield Bigon(i, j, key)


def find_innermost_bigon(word: BraidWord) -> Bigon | None:
    """Leftmost innermost bigon, or None when every pair of strands
    crosses at most once."""
    return next(_innermost_bigons(_strand_pairs(word)), None)


def smooth_bigon(word: BraidWord, bigon: Bigon) -> BraidWord:
    """Delete the bigon's two letters.  The closure stays a knot and the
    (above, below) counts each drop by one."""
    if bigon not in _innermost_bigons(_strand_pairs(word)):
        raise ValueError(f"{bigon} is not an innermost bigon of this word")
    return _drop_bigon(word, bigon)


def _drop_bigon(word: BraidWord, bigon: Bigon) -> BraidWord:
    letters, i, j = word.letters, bigon.i, bigon.j
    return BraidWord(word.strands, letters[:i] + letters[i + 1 : j] + letters[j + 1 :])


# ---------------------------------------------------------------------------
# strand removal

def remove_first_ascending_strand(word: BraidWord) -> tuple[BraidWord, RemovalCertificate]:
    """Resolve the crossing between the first ascending traversal strand
    and its predecessor, then delete the closed strand this creates.

    Requires a positive bigon-free word with knot closure on at least
    two strands.  The resulting word has one strand fewer, and its
    (above, below) counts are (a - m - 1, b - m).
    """
    if not word.is_positive():
        raise ValueError("word is not positive")
    if word.strands < 2:
        raise ValueError("nothing to remove from a one-strand word")
    pairs, perm = _sweep(word)
    if next(_innermost_bigons(pairs), None) is not None:
        raise ValueError("word has a bigon; smooth it first")
    order = _knot_order(perm)

    # the last strand returns to position 1, so some strand ascends
    first_up = next(t for t in range(1, word.strands) if perm[order[t]] < order[t])
    prev_start, cur_start = order[first_up - 1], order[first_up]

    matches = [k for k, p in enumerate(pairs) if set(p) == {prev_start, cur_start}]
    if len(matches) != 1:
        raise AssertionError(f"strands {prev_start} and {cur_start} cross {len(matches)} times")
    resolved = matches[0]

    # walk the strand that becomes closed once `resolved` is smoothed
    pos = cur_start
    heights = []
    involved = []
    overs = 0
    for slot, (idx, _) in enumerate(word.letters):
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
    letters = []
    for slot, (idx, sign) in enumerate(word.letters):
        if slot in dropped:
            continue
        letters.append((idx - 1 if idx > heights[slot] else idx, sign))
    return (
        BraidWord(word.strands - 1, tuple(letters)),
        RemovalCertificate(crossing=resolved, strand=cur_start, m=m),
    )


@dataclass(frozen=True)
class ReductionStep:
    action: str
    detail: Bigon | RemovalCertificate
    counts_before: tuple[int, int]
    counts_after: tuple[int, int]
    word: BraidWord


def reduce_to_base(word: BraidWord) -> tuple[BraidWord, list[ReductionStep]]:
    """Smooth bigons and remove ascending strands until n-1 letters
    remain.  At that point b = 0 and a = n - 1."""
    if not word.is_positive():
        raise ValueError("word is not positive")
    steps = []
    current = word
    while len(current.letters) > current.strands - 1:
        before = steps[-1].counts_after if steps else ab_counts(current)
        bigon = find_innermost_bigon(current)
        if bigon is not None:
            # the bigon was just found innermost on this word, so skip smooth_bigon's re-check
            action, detail, current = "smooth", bigon, _drop_bigon(current, bigon)
        else:
            action = "remove"
            current, detail = remove_first_ascending_strand(current)
        steps.append(ReductionStep(action, detail, before, ab_counts(current), current))
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
