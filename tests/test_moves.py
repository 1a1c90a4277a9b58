"""Invariance as an oracle: the Jones polynomial of a braid closure does
not move under the moves of Markov's theorem and the braid relations.

A seeded signed knot word on 2-6 strands is changed by one move, applied
to its letter list here, with no engine helper:

* ``pair``: a free pair s_i^(+-1) s_i^(-+1) inserted;
* ``rotate``: a cyclic rotation (a conjugation);
* ``stabilise``: s_n^(+-1) on a new strand n + 1 inserted anywhere, which
  puts a kink in the closure;
* ``reverse``: the word read backwards;
* ``relation``: s_i s_(i+1) s_i s_(i+1)^-1 s_i^-1 s_(i+1)^-1, or its
  mirror, inserted (words on 3 strands or more);
* ``mirror``: every sign flipped, whose polynomial is the mirrored one.

``jones(pd_from_braid(...))`` of the moved word must equal the
original's (mirrored for ``mirror``).  When the moved word's closure DT
code has a connected interlacement graph, ``jones(realize(...))`` of that
code must equal it too, up to mirror, since ``realize`` may embed the
mirror image; that ties ``realize`` to ``pd_from_braid`` through two
different diagrams of one knot.  The knot test and the connectivity test
are ``test_small_scope``'s own, so no engine closure code picks the words
checked.  Tier-1 draws words with Hypothesis; run this file as a script
to check every move on ``WORDS`` seeded words:

    PYTHONPATH=src python3 tests/test_moves.py
"""

import random
import sys

from hypothesis import given, settings, strategies as st

from rollercoaster import BraidWord, closure_gauss, gauss_to_dt, jones, pd_from_braid, realize

from test_small_scope import _components, connected

MOVES = ("pair", "rotate", "stabilise", "reverse", "relation", "mirror")
WORDS = 2000


def signed_knot_word(seed: int) -> tuple[int, list[tuple[int, int]]]:
    """Strands and signed letters of a word on 2-6 strands with at most 15
    letters, every generator used, whose closure is a knot."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 6)
        gens = list(range(1, n)) + [rng.randint(1, n - 1) for _ in range(rng.randint(0, 16 - n))]
        rng.shuffle(gens)
        if _components(n, gens) == 1:
            return n, [(i, rng.choice((1, -1))) for i in gens]


def moved(n: int, letters, move: str, rng: random.Random):
    """The strands and letters after ``move``, placed by ``rng``; None for
    ``relation`` on two strands, which has no s_(i+1)."""
    k = rng.randint(0, len(letters))
    s = rng.choice((1, -1))
    if move == "pair":
        i = rng.randint(1, n - 1)
        return n, letters[:k] + [(i, s), (i, -s)] + letters[k:]
    if move == "rotate":
        return n, letters[k:] + letters[:k]
    if move == "stabilise":
        return n + 1, letters[:k] + [(n, s)] + letters[k:]
    if move == "reverse":
        return n, letters[::-1]
    if move == "relation":
        if n < 3:
            return None
        i = rng.randint(1, n - 2)
        identity = [(i, s), (i + 1, s), (i, s), (i + 1, -s), (i, -s), (i + 1, -s)]
        return n, letters[:k] + identity + letters[k:]
    if move == "mirror":
        return n, [(i, -sign) for i, sign in letters]
    raise ValueError(move)


def move_problem(n: int, letters, move: str, rng: random.Random):
    """None when ``move`` keeps the Jones polynomial of both routes, or
    does not apply; otherwise what moved."""
    after = moved(n, letters, move, rng)
    if after is None:
        return None
    word, other = BraidWord(n, tuple(letters)), BraidWord(after[0], tuple(after[1]))
    want = jones(pd_from_braid(word))
    if move == "mirror":
        want = want.mirror()
    got = jones(pd_from_braid(other))
    if got != want:
        return f"{word} on {n} strands, {move} to {other}: Jones {got}, want {want}"
    code = gauss_to_dt(closure_gauss(other)[0])
    if connected(code.entries):
        realized = jones(realize(code))
        if realized not in (want, want.mirror()):
            return f"{word} on {n} strands, {move} to {other}: Jones {realized} from realize({code}), want {want}"
    return None


@given(st.integers(0, 10**6), st.sampled_from(MOVES), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_the_jones_polynomial_does_not_move_under_braid_moves(seed, move, place):
    n, letters = signed_knot_word(seed)
    assert move_problem(n, letters, move, random.Random(place)) is None


def test_every_move_applies_and_keeps_a_knot():
    for seed in range(50):
        n, letters = signed_knot_word(seed)
        for move in MOVES:
            after = moved(n, letters, move, random.Random(seed))
            if after is None:
                assert (move, n) == ("relation", 2)
                continue
            strands, changed = after
            assert _components(strands, [i for i, _ in changed]) == 1, (seed, move)
            assert (strands, changed) != (n, letters) or move in ("rotate", "reverse"), (seed, move)


if __name__ == "__main__":
    moves, problems = 0, []
    for seed in range(WORDS):
        n, letters = signed_knot_word(seed)
        rng = random.Random(seed)
        for move in MOVES:
            if move == "relation" and n < 3:
                continue
            moves += 1
            try:
                found = move_problem(n, letters, move, rng)
            except Exception as exc:  # a broken engine may raise instead of moving the polynomial
                found = f"seed {seed}, {move}: {type(exc).__name__}: {exc}"
            if found:
                problems.append(found)
    print(f"{WORDS} signed knot words, {moves} moves: {len(problems)} problems")
    for found in problems[:10]:
        print(found)
    sys.exit(bool(problems))
