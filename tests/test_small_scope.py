"""Exhaustive small-scope check of the paper's theorem path.

The closure of a positive braid word is unchanged by a cyclic rotation of
the word, so one word per rotation class covers every closure.  Over
every positive word, up to rotation, that uses every generator and
closes to a knot, with n strands and c letters in small ranges, the
test checks each equality the paper's induction rests on:

* ``min_warp`` of the closure equals ``positive_unknotting``, which
  equals (c - n + 1) / 2;
* ``ab_counts`` equals ((c + n - 1) / 2, (c - n + 1) / 2);
* ``reduce_to_base`` drops the counts by (1, 1) per smoothing and by
  (m + 1, m) per strand removal, and ends at strands - 1 letters with
  counts (strands - 1, 0).

On the words whose closure DT code has a connected interlacement graph,
it also checks the two routes to the closure diagram and the catalog:

* the Jones polynomial of ``pd_from_braid(word)`` equals that of
  ``realize`` of the closure DT code.  On a disconnected code the two
  may differ, by mirror image or otherwise, since ``realize`` orients
  each interlacement component on its own: ``2 4 3 1 2 2`` realizes as
  the mirror trefoil;
* the knot ``match_jones`` names, one of ``IDENTIFIED``, has catalog
  unknotting and ascending ranges containing (c - n + 1) / 2.

Words are drawn as necklaces, each the least rotation of its class, and
the knot and connectivity tests are this file's own permutation walk and
chord check, so a fault in the package's closure code cannot shrink the
set of words checked; both numbers of words are pinned.  Tier-1 runs
``SMALL``; run this file as a script for ``FULL``, 12 221 words of which
5 625 are connected:

    PYTHONPATH=src python3 tests/test_small_scope.py
"""

import itertools
import sys

from rollercoaster import (
    BraidWord, ab_counts, closure_gauss, gauss_to_dt, jones, load_jones_refs, match_jones, min_warp, pd_from_braid,
    positive_unknotting, realize, reduce_to_base,
)
from rollercoaster.catalog import load_catalog

# strands -> largest letter count, and the number of words checked
SMALL = ({2: 15, 3: 13, 4: 9, 5: 8, 6: 7}, 4134)
FULL = ({3: 15, 4: 11, 5: 9, 6: 8}, 12221)
# the number of those words whose closure DT code is connected
SMALL_CONNECTED, FULL_CONNECTED = 691, 5625
# the packaged knots the connected closures identify, in either range
IDENTIFIED = {"3_1", "5_1", "7_1", "8_19", "9_1"}
SHARED = "a Jones polynomial shared by two knots may be the cause, as the table holds only 86 knots"


def necklaces(k: int, length: int):
    """Every word of ``length`` digits 0..k-1 that is the least of its
    rotations, in lexicographic order: the Lyndon words whose length
    divides ``length``, repeated (Duval's generation)."""
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if length % m == 0:
            yield w * (length // m)
        w = [w[i % m] for i in range(length)]
        while w and w[-1] == k - 1:
            w.pop()


def _closes_to_a_knot(strands: int, letters) -> bool:
    """Whether the strand that starts at the top returns there only after
    passing every position."""
    perm = list(range(strands))
    for idx in letters:
        perm[idx - 1], perm[idx] = perm[idx], perm[idx - 1]
    pos, cycle = perm[0], 1
    while pos != 0:
        pos, cycle = perm[pos], cycle + 1
    return cycle == strands


def knot_words(ranges):
    """Positive knot words on each strand count n of ``ranges`` with at
    most ``ranges[n]`` letters, every generator used, one per rotation
    class."""
    for n, c_max in sorted(ranges.items()):
        for c in range(n - 1, c_max + 1, 2):  # a knot has c - n + 1 even
            for digits in necklaces(n - 1, c):
                letters = [d + 1 for d in digits]
                if len(set(letters)) == n - 1 and _closes_to_a_knot(n, letters):
                    yield BraidWord(n, tuple((idx, 1) for idx in letters))


def problem(word: BraidWord) -> str | None:
    """The first equality that fails on ``word``, or None."""
    c, n = len(word.letters), word.strands
    genus = (c - n + 1) // 2
    degree = min_warp(closure_gauss(word)[0]).degree
    if not degree == positive_unknotting(word) == genus:
        return f"{word}: min_warp {degree}, positive_unknotting {positive_unknotting(word)}, want {genus}"
    if ab_counts(word) != (genus + n - 1, genus):
        return f"{word}: ab_counts {ab_counts(word)}, want {(genus + n - 1, genus)}"
    base, steps = reduce_to_base(word)
    counts = (genus + n - 1, genus)
    for step in steps:
        drop = (1, 1) if step.action == "smooth" else (step.detail.m + 1, step.detail.m)
        want = (counts[0] - drop[0], counts[1] - drop[1])
        if step.counts_before != counts or step.counts_after != want:
            return f"{word}: {step.action} {step.counts_before} -> {step.counts_after}, want {counts} -> {want}"
        counts = want
    if len(base.letters) != base.strands - 1 or counts != (base.strands - 1, 0):
        return f"{word}: base {base} on {base.strands} strands ends at counts {counts}"
    return None


def connected(entries) -> bool:
    """Whether a DT code's chords form a connected interlacement graph:
    crossing i joins positions 2i and |entries[i]| - 1, and two chords
    interlace when exactly one end of one lies strictly inside the other."""
    chords = [sorted((2 * i, abs(e) - 1)) for i, e in enumerate(entries)]
    seen, stack = {0}, [0]
    while stack:
        a, b = chords[stack.pop()]
        for v, (x, y) in enumerate(chords):
            if v not in seen and (a < x < b) != (a < y < b):
                seen.add(v)
                stack.append(v)
    return len(seen) == len(chords)


def diagram_problem(word: BraidWord, code, refs, catalog, names: set) -> str | None:
    """On a word with a connected closure DT code ``code``, the first of:
    two Jones polynomials for the closure, or a catalog range of the knot
    the polynomial names that misses (c - n + 1) / 2.  Each name goes into
    ``names``."""
    genus = (len(word.letters) - word.strands + 1) // 2
    poly, realized = jones(pd_from_braid(word)), jones(realize(code))
    if poly != realized:
        return f"{word}: Jones {poly} from pd_from_braid, {realized} from realize({code})"
    for name in match_jones(poly, refs):
        names.add(name)
        u, a = catalog[name].unknotting, catalog[name].ascending
        if not (u.lo <= genus <= u.hi and a.lo <= genus <= a.hi):
            return f"{word}: identified as {name}, whose unknotting {u} and ascending {a} miss {genus}; {SHARED}"
    return None


def check(ranges, expected: int) -> list[str]:
    """The first ten problems over the words of ``ranges``, a wrong word
    count among them."""
    words = list(knot_words(ranges))
    found = [p for p in map(problem, words) if p]
    if len(words) != expected:
        found.append(f"{len(words)} words checked, {expected} expected")
    return found[:10]


def check_connected(ranges, expected: int) -> list[str]:
    """The first ten problems over the words of ``ranges`` with a
    connected closure code, a wrong word count and a wrong set of
    identified knots among them."""
    codes = ((w, gauss_to_dt(closure_gauss(w)[0])) for w in knot_words(ranges))
    words = [(w, code) for w, code in codes if connected(code.entries)]
    refs, catalog, names = load_jones_refs(), {e.name: e for e in load_catalog()}, set()
    found = [p for p in (diagram_problem(w, code, refs, catalog, names) for w, code in words) if p]
    if len(words) != expected:
        found.append(f"{len(words)} connected words checked, {expected} expected")
    if names != IDENTIFIED:
        found.append(f"connected closures identify {sorted(names)}, not {sorted(IDENTIFIED)}; {SHARED}")
    return found[:10]


def test_necklaces_are_the_least_rotations():
    words = [tuple(w) for w in necklaces(3, 4)]
    brute = sorted({min(w[i:] + w[:i] for i in range(4)) for w in itertools.product(range(3), repeat=4)})
    assert words == brute


def test_connected_reads_the_interlacement_graph():
    assert connected((4, 6, 2))
    # the closure of 2 4 3 1 2 2: a kink at crossing 1 beside a trefoil
    assert not connected((12, -10, 8, -6, -2, -4))
    assert not connected((2, 4))


def test_the_theorem_path_on_every_small_positive_knot_word():
    assert check(*SMALL) == []


def test_both_closure_diagrams_and_the_catalog_on_every_small_connected_word():
    assert check_connected(SMALL[0], SMALL_CONNECTED) == []


if __name__ == "__main__":
    ranges, expected = FULL
    failures = check(ranges, expected) + check_connected(ranges, FULL_CONNECTED)
    print(f"{expected} words ({FULL_CONNECTED} connected) over {ranges}: {len(failures)} problems")
    for failure in failures:
        print(failure)
    sys.exit(bool(failures))
