import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from rollercoaster import (
    Bigon,
    BraidWord,
    DTCode,
    GaussCode,
    RemovalCertificate,
    ab_counts,
    closure_components,
    closure_gauss,
    dt_to_gauss,
    gauss_to_dt,
    min_warp,
    parse_braid,
    parse_gauss,
    pd_from_braid,
    positive_unknotting,
    random_positive_braid_knot,
    reduce_to_base,
)
from rollercoaster import braid, codes, warp
from rollercoaster.braid import MAX_BRAID_LETTERS, ReductionStep, _closure_walk, _first_bigon, _reduce

from oracles import (
    BRAID_TOKEN,
    ab_counts_by_warp,
    braid_by_grammar,
    closure_walk_by_rounds,
    components_by_rounds,
    find_innermost_bigon,
    innermost_bigons_pairwise,
    reduce_by_resweep,
    remove_first_ascending_strand,
    smooth_bigon,
)


def test_parse_braid_plain_and_generator_syntax():
    assert parse_braid("1 2 1").letters == ((1, 1), (2, 1), (1, 1))
    assert parse_braid("s1 s2^3").letters == ((1, 1), (2, 1), (2, 1), (2, 1))
    assert parse_braid("-1 2").letters == ((1, -1), (2, 1))
    assert parse_braid("s1^-2").letters == ((1, -1), (1, -1))


def test_default_strand_count_counts_zero_powers():
    assert parse_braid("s5^0") == BraidWord(6, ())
    assert parse_braid("s1 s3^0") == BraidWord(4, ((1, 1),))
    with pytest.raises(ValueError, match="^closure has at least 6 components$"):
        ab_counts(parse_braid("s5^0"))


def test_parse_braid_caps_expanded_length():
    assert len(parse_braid(f"s1^{MAX_BRAID_LETTERS}").letters) == MAX_BRAID_LETTERS
    for text in (f"s1^{MAX_BRAID_LETTERS + 1}", f"s1^-{MAX_BRAID_LETTERS} 1", "s1^999999999",
                 f"s1^{MAX_BRAID_LETTERS // 2} s2^{MAX_BRAID_LETTERS // 2} s1"):
        with pytest.raises(ValueError, match="over the limit"):
            parse_braid(text)
    with pytest.raises(ValueError, match=f"^braid word expands to {MAX_BRAID_LETTERS + 1} letters, over the limit"):
        parse_braid(" ".join(["1"] * (MAX_BRAID_LETTERS + 1)))
    # a bad token after an over-limit power is still the error reported
    with pytest.raises(ValueError, match="^malformed braid token '1x'$"):
        parse_braid(f"s1^{MAX_BRAID_LETTERS + 1} 2 1x")


@pytest.mark.parametrize("token", ["+1", "1_0", "\u0663", "s\u0663", "s1^\u0662", "s1^+2",
                                   "1\u20032", "2\u00a0", "\u3000s1"])
def test_parse_braid_reads_only_ascii_integer_tokens(token):
    with pytest.raises(ValueError, match=f"^malformed braid token {re.escape(repr(token))}$"):
        parse_braid(f"1 {token}")


@st.composite
def braid_texts(draw):
    """Braid text in plain and generator syntax, zero and negative powers
    included, with the strand count and letters it spells."""
    tokens, letters, top = [], [], 0
    # indices on both sides of the parser's plain-token table, 1..99
    for idx, power, plain in draw(st.lists(st.tuples(st.integers(1, 120), st.integers(-3, 3), st.booleans()),
                                           max_size=12)):
        if plain and power in (1, -1):
            tokens.append(str(idx * power))
        else:
            tokens.append(f"s{idx}" if power == 1 else f"s{idx}^{power}")
        letters += [(idx, 1 if power > 0 else -1)] * abs(power)
        top = max(top, idx)
    separator = draw(st.sampled_from([" ", ",", ", ", "\n", "\t", "\r\n", "\x0b", "\x0c"]))
    return separator.join(tokens), top + 1, tuple(letters)


@given(braid_texts())
def test_parse_braid_equals_its_checked_rebuild(case):
    text, strands, letters = case
    word = parse_braid(text)
    assert word == BraidWord(strands, letters) == BraidWord(word.strands, word.letters)


# near-grammar tokens: grammar tokens, and strings over the grammar's
# characters, "+", "_", non-ASCII digits and a tab, which splits a token
NEAR_BRAID_TOKENS = st.one_of(
    st.from_regex(BRAID_TOKEN, fullmatch=True),
    st.text(alphabet="0123456789-+_s^\u00b2\u0663\t", min_size=1, max_size=6),
)


@given(st.lists(NEAR_BRAID_TOKENS, max_size=6))
def test_parse_braid_accepts_exactly_the_token_grammar(tokens):
    text = " ".join(tokens)
    outcome = _outcome(parse_braid, text)
    assert outcome == _outcome(braid_by_grammar, text)
    if outcome[0] == "value":
        word = outcome[1]
        assert word == BraidWord(word.strands, word.letters)


@pytest.mark.parametrize("text", [
    "01", "007", "-0", "0", "99", "-99", "100", "-100", "99 -100 s100 s99^2 007 -01",
    " ".join(["1"] * (MAX_BRAID_LETTERS + 1)),
    f"s1^{MAX_BRAID_LETTERS + 1} 2 1x",
    f"s1^{MAX_BRAID_LETTERS + 1} 2 0",
])
def test_parse_braid_matches_the_grammar_on_both_sides_of_the_token_table(text):
    assert _outcome(parse_braid, text) == _outcome(braid_by_grammar, text)


def test_parse_braid_strand_inference_and_validation():
    assert parse_braid("1 2 1").strands == 3
    with pytest.raises(ValueError, match="^generator index 3 out of range for 3 strands$"):
        BraidWord(3, ((3, 1),))
    with pytest.raises(ValueError):
        parse_braid("0")


@pytest.mark.parametrize("strands, letters, message", [
    (3, ((1.9, 1), (2, 1)), "generator index 1.9 out of range for 3 strands"),
    (2, ((True, 1),), "generator index True out of range for 2 strands"),
    (2, (("1", 1),), "generator index '1' out of range for 2 strands"),
    (2, ((1, True),), "letter sign must be +1 or -1, got True"),
    (2, ((1, 1.0),), "letter sign must be +1 or -1, got 1.0"),
    (3.0, ((1, 1), (2, 1)), "strand count must be an integer, got 3.0"),
    (True, (), "strand count must be an integer, got True"),
])
def test_braid_word_refuses_non_integer_fields(strands, letters, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BraidWord(strands, letters)


def test_braid_word_turns_sequences_into_tuples():
    assert BraidWord(3, [[1, 1], [2, -1]]).letters == ((1, 1), (2, -1))


def test_permutation_and_components():
    word = parse_braid("1 1 1")
    assert _closure_walk(word)[0] == (1, 2)
    assert closure_components(word) == 1
    assert closure_components(parse_braid("1 1")) == 2
    assert closure_components(BraidWord(3, ())) == 3


def test_closure_gauss_trefoil():
    word = parse_braid("1 1 1")
    gauss, base = closure_gauss(word)
    assert gauss_to_dt(gauss).entries == (4, 6, 2)
    assert base.edge == 0 and base.forward


def test_ab_counts_frozen_values():
    assert ab_counts(parse_braid("1 1 1")) == (2, 1)
    assert ab_counts(parse_braid("1 1 1 1 1")) == (3, 2)
    assert ab_counts(parse_braid("1 2 1 2 1 2 1 2")) == (5, 3)
    assert ab_counts(BraidWord(1, ())) == (0, 0)


def test_positive_unknotting_values():
    assert positive_unknotting(parse_braid("1 1 1")) == 1
    assert positive_unknotting(parse_braid("1 1 1 1 1")) == 2
    assert positive_unknotting(parse_braid("1 2 1 2 1 2 1 2")) == 3
    with pytest.raises(ValueError):
        positive_unknotting(parse_braid("1 1"))
    with pytest.raises(ValueError):
        positive_unknotting(parse_braid("-1 -1 -1"))


def test_find_innermost_bigon_prefers_nested_pairs():
    # candidates at letters (0,5), (2,3), (3,4); the outer pair loses to
    # the leftmost pair strictly inside it
    word = parse_braid("1 2 1 1 1 2")
    bigon = find_innermost_bigon(word)
    assert (bigon.i, bigon.j) == (2, 3)
    assert find_innermost_bigon(parse_braid("1 2 1 2")).strands == (1, 2)
    assert find_innermost_bigon(parse_braid("1 2")) is None
    assert find_innermost_bigon(parse_braid("2 1")) is None


def first_innermost_bigon(word):
    """The first bigon of the scan ``reduce_to_base`` resumes."""
    return _first_bigon(word.letters, list(range(1, word.strands + 1)), {}, 0)


def test_innermost_bigon_scan_stops_at_the_first():
    word = parse_braid("s1^200")
    occupant, last = [1, 2], {}
    bigon = _first_bigon(word.letters, occupant, last, 0)
    assert bigon == Bigon(0, 1, (1, 2)) and type(bigon) is Bigon
    # the scan stopped at letter 1: one pair recorded, and the strands
    # just after letter 1 back in place
    assert last == {(1, 2): 0}
    assert occupant == [1, 2]


def test_innermost_bigon_scan_builds_pairs_only_up_to_the_bigon():
    read = []

    class CountedLetters(tuple):
        # a scan may read the letters by iteration or by index
        def __iter__(self):
            for letter in tuple.__iter__(self):
                read.append(letter)
                yield letter

        def __getitem__(self, key):
            got = tuple.__getitem__(self, key)
            if isinstance(key, slice):
                read.extend(got)
            else:
                read.append(got)
            return got

    word = parse_braid("s1^200")
    object.__setattr__(word, "letters", CountedLetters(word.letters))
    assert first_innermost_bigon(word) == braid.Bigon(0, 1, (1, 2))
    # one strand pair is built per letter read
    assert len(read) <= 2


def test_smooth_bigon_identities():
    word = parse_braid("1 2 1 2")
    assert ab_counts(word) == (3, 1)
    bigon = find_innermost_bigon(word)
    assert (bigon.i, bigon.j) == (0, 3)
    smaller = smooth_bigon(word, bigon)
    assert str(smaller) == "2 1"
    assert ab_counts(smaller) == (2, 0)
    with pytest.raises(ValueError):
        smooth_bigon(word, type(bigon)(i=1, j=2, strands=(1, 3)))


def test_remove_strand_identities_on_base_words():
    word = parse_braid("1 2")  # bigon-free base word, 3 strands
    smaller, cert = remove_first_ascending_strand(word)
    assert str(smaller) == "1"
    assert cert.m == 0
    a, b = ab_counts(word)
    a2, b2 = ab_counts(smaller)
    assert (a2, b2) == (a - cert.m - 1, b - cert.m) == (1, 0)
    assert smaller.strands == word.strands - 1


def test_reduce_to_base_reaches_n_minus_1():
    word = parse_braid("1 2 1 2 1 2 1 2")
    base, steps = reduce_to_base(word)
    assert len(base.letters) == base.strands - 1
    assert ab_counts(base) == (base.strands - 1, 0)
    # the counts come from (c, n), so recount them on each word as well
    assert steps[0].counts_before == ab_counts(word)
    for step in steps:
        a, b = step.counts_before
        a2, b2 = step.counts_after
        assert step.counts_after == ab_counts(step.word)
        if step.action == "smooth":
            assert (a2, b2) == (a - 1, b - 1)
        else:
            assert (a2, b2) == (a - step.detail.m - 1, b - step.detail.m)


def test_step_records_are_named_tuples():
    bigon = Bigon(0, 3, (1, 2))
    cert = RemovalCertificate(crossing=1, strand=3, m=1)
    # the CLI prints these reprs, the same bytes the dataclass records gave
    assert str(bigon) == "Bigon(i=0, j=3, strands=(1, 2))"
    assert str(cert) == "RemovalCertificate(crossing=1, strand=3, m=1)"
    assert (bigon.i, bigon.j, bigon.strands, cert.crossing, cert.strand, cert.m) == (0, 3, (1, 2), 1, 3, 1)
    _, (step,) = reduce_to_base(parse_braid("1 2 1 2"))
    assert repr(step) == (
        "ReductionStep(action='smooth', detail=Bigon(i=0, j=3, strands=(1, 2)), counts_before=(3, 1), "
        "counts_after=(2, 0), word=BraidWord(strands=3, letters=((2, 1), (1, 1))))"
    )
    for record, field in ((bigon, "i"), (cert, "m"), (step, "word")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # tuple semantics: a record equals, and hashes as, the plain tuple of its fields
    assert bigon == (0, 3, (1, 2)) and hash(bigon) == hash((0, 3, (1, 2)))
    assert step == ("smooth", bigon, (3, 1), (2, 0), BraidWord(3, ((2, 1), (1, 1))))
    assert isinstance(step, ReductionStep) and isinstance(step, tuple)


def test_reduction_generator_checks_the_word_when_called():
    emitted = []
    with pytest.raises(ValueError, match="^closure has 2 components$"):
        _reduce(parse_braid("1 1"), lambda *step: emitted.append(step))
    with pytest.raises(ValueError, match="^word is not positive$"):
        _reduce(parse_braid("-1 -1 -1"), lambda *step: emitted.append(step))
    assert emitted == []


def test_reduction_generator_edits_one_letter_list():
    # the sink sees one live list per strand count: smoothings edit it in
    # place, and each removal hands out the one list the later steps edit
    for text, strand_counts in (("s1^201", {2}), ("1 1 2 2 1 3 1 4 1 2 1 3 4 3 2 2 2 4 4 3", {5, 4, 3})):
        lists = {}
        _reduce(parse_braid(text), lambda *step: lists.setdefault(step[-2], set()).add(id(step[-1])))
        assert lists.keys() == strand_counts
        assert all(len(ids) == 1 for ids in lists.values())


def test_reduce_to_base_rejects_a_link_before_any_step():
    # a link caught by the strand bound, and one caught by the walk; the
    # loop ``reduce_to_base`` runs hands no step to a sink before raising
    emitted = []
    for text, message in (("1 3", "closure has at least 2 components"), ("1 1", "closure has 2 components")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            reduce_to_base(parse_braid(text))
        with pytest.raises(ValueError, match=f"^{message}$"):
            _reduce(parse_braid(text), lambda *step: emitted.append(step))
    assert emitted == []
    # the sink is live: a knot word hands it its one step
    assert len(reduce_to_base(parse_braid("1 1 1"))[1]) == 1
    _reduce(parse_braid("1 1 1"), lambda *step: emitted.append(step))
    assert len(emitted) == 1


def test_random_positive_braid_knot_is_deterministic():
    w1 = random_positive_braid_knot(6, 20, seed=7)
    w2 = random_positive_braid_knot(6, 20, seed=7)
    assert w1 == w2
    assert closure_components(w1) == 1
    assert w1.is_positive()


@st.composite
def positive_knot_words(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    extra = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=8))
    base = list(range(1, n))  # ensure the closure can be connected
    letters = draw(st.permutations(base + extra))
    word = BraidWord(n, tuple((i, 1) for i in letters))
    assume(components_by_rounds(word) == 1)
    return word


@given(positive_knot_words())
@settings(max_examples=200)
def test_count_difference_is_strands_minus_one(word):
    a, b = ab_counts(word)
    assert a - b == word.strands - 1


@given(positive_knot_words())
@settings(max_examples=60, deadline=None)
def test_positive_unknotting_matches_min_warp(word):
    gauss, _ = closure_gauss(word)
    assert min_warp(gauss).degree == positive_unknotting(word)


@given(positive_knot_words())
@settings(max_examples=100, deadline=None)
def test_reduction_counts_chain(word):
    _, steps = reduce_to_base(word)
    before = ab_counts(word)
    for step in steps:
        assert step.counts_before == before
        assert step.counts_after == ab_counts(step.word)
        before = step.counts_after


def _reduction_record(reduction):
    base, steps = reduction
    return base, [(s.action, s.detail, s.counts_before, s.counts_after, s.word) for s in steps]


@given(positive_knot_words())
@settings(max_examples=200, deadline=None)
def test_reduce_to_base_matches_resweep_oracle(word):
    assert _reduction_record(reduce_to_base(word)) == _reduction_record(reduce_by_resweep(word))


@pytest.mark.parametrize("n_max, c_max, seeds", [(6, 20, range(1000)), (7, 30, range(200))])
def test_reduce_to_base_matches_resweep_oracle_on_seeded_words(n_max, c_max, seeds):
    for seed in seeds:
        word = random_positive_braid_knot(n_max, c_max, seed)
        assert _reduction_record(reduce_to_base(word)) == _reduction_record(reduce_by_resweep(word)), seed


@given(positive_knot_words())
@settings(max_examples=200, deadline=None)
def test_reduction_generator_matches_reduce_to_base(word):
    # each step's letter list is live, so it is copied before the next step
    streamed = []

    def emit(action, detail, before, after, n, letters):
        streamed.append((action, detail, before, after, BraidWord(n, tuple(letters))))

    base, none_kept = _reduce(word, emit)
    expected_base, steps = reduce_to_base(word)
    assert streamed == steps
    assert (base, none_kept) == (expected_base, [])


@given(positive_knot_words())
@settings(max_examples=200)
def test_closure_walk_matches_oracle(word):
    assert _closure_walk(word)[1] == roles_by_rounds(word)


def roles_by_rounds(word):
    """The oracle walk with each passage's role: the strand entering at
    the upper position runs over exactly on a positive letter."""
    return [
        (slot, "O" if upper == (word.letters[slot - 1][1] > 0) else "U")
        for slot, upper in closure_walk_by_rounds(word)
    ]


@given(positive_knot_words())
@settings(max_examples=200)
def test_innermost_bigons_match_oracle(word):
    expected = innermost_bigons_pairwise(word)
    assert first_innermost_bigon(word) == (expected[0] if expected else None)


@st.composite
def signed_knot_words(draw):
    # signs leave the closure permutation alone, so a signed seeded knot word still closes to a knot
    word = random_positive_braid_knot(5, 12, draw(st.integers(min_value=0, max_value=10**6)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(word.letters), max_size=len(word.letters)))
    return BraidWord(word.strands, tuple((i, s) for (i, _), s in zip(word.letters, signs)))


@st.composite
def signed_link_words(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    letters = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=10))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(letters), max_size=len(letters)))
    word = BraidWord(n, tuple(zip(letters, signs)))
    assume(components_by_rounds(word) != 1)
    return word


@given(st.one_of(signed_knot_words(), signed_link_words()))
@settings(max_examples=200)
def test_closure_components_counts_the_cycles_of_the_whole_permutation(word):
    assert closure_components(word) == components_by_rounds(word)


@given(signed_knot_words())
def test_closure_walk_matches_oracle_on_signed_knot_words(word):
    assert _closure_walk(word)[1] == roles_by_rounds(word)


@given(signed_knot_words())
def test_closure_gauss_equals_its_checked_rebuild(word):
    gauss, _ = closure_gauss(word)
    assert GaussCode(gauss.passages) == gauss


@given(st.one_of(st.just(BraidWord(1, ())), signed_knot_words()))
@settings(max_examples=200)
def test_ab_counts_matches_warp_oracle_on_signed_knot_words(word):
    assert ab_counts(word) == ab_counts_by_warp(word)


# every entry point that needs a knot closure goes through the one gate
KNOT_ENTRY_POINTS = (ab_counts, closure_gauss, pd_from_braid, positive_unknotting, reduce_to_base)


@pytest.mark.parametrize(
    "function, expected",
    [*((f, ("error", "closure has at least 1000000 components")) for f in KNOT_ENTRY_POINTS),
     (closure_components, ("value", 1000000))],
    ids=[f.__name__ for f in (*KNOT_ENTRY_POINTS, closure_components)],
)
def test_huge_strand_count_rejected_before_per_strand_work(function, expected):
    # the knot entry points reject the word and closure_components counts
    # its components, none of them building a list of its strands
    word = parse_braid("s1000000")
    tracemalloc.start()
    try:
        outcome = _outcome(function, word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == expected
    assert peak < 1 << 20


@given(signed_link_words())
@settings(max_examples=100)
def test_knot_entry_points_raise_one_message_on_link_words(word):
    messages = set()
    for function in KNOT_ENTRY_POINTS:
        with pytest.raises(ValueError) as raised:
            function(word)
        messages.add(str(raised.value))
    # the strand bound's message exactly when it holds; past it, the count
    if word.strands > len(word.letters) + 1:
        want = f"closure has at least {word.strands - len(word.letters)} components"
    else:
        want = f"closure has {components_by_rounds(word)} components"
    assert messages == {want}


@given(signed_link_words())
@settings(max_examples=100)
def test_ab_counts_raises_like_warp_oracle_on_link_words(word):
    with pytest.raises(ValueError) as raised:
        ab_counts(word)
    with pytest.raises(ValueError) as expected:
        ab_counts_by_warp(word)
    assert str(raised.value) == str(expected.value)


def test_reduce_to_base_builds_no_gauss_code_and_runs_no_warp(monkeypatch):
    calls = {"GaussCode": 0, "warp_from": 0}
    post_init, original_warp_from = codes.GaussCode.__post_init__, warp.warp_from

    def counted_post_init(self):
        calls["GaussCode"] += 1
        post_init(self)

    def counted_warp_from(*args):
        calls["warp_from"] += 1
        return original_warp_from(*args)

    monkeypatch.setattr(codes.GaussCode, "__post_init__", counted_post_init)
    # patch every module that bound the function by name, not only warp itself
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("warp_from") is original_warp_from:
            monkeypatch.setattr(module, "warp_from", counted_warp_from)
    word = parse_braid("1 2 1 2 1 2 1 2")
    base, steps = reduce_to_base(word)
    assert (ab_counts(base), len(steps)) == ((2, 0), 3)
    assert calls == {"GaussCode": 0, "warp_from": 0}
    # the counters are live: a parsed Gauss code and its warp trip both
    min_warp(parse_gauss("1 -2 3 -1 2 -3"))
    assert calls == {"GaussCode": 1, "warp_from": 1}


def test_braid_item_checks_its_text_once(monkeypatch):
    # a braid item as the benchmark runs it: the parser checks the text,
    # and no value built from the parsed word is checked again
    word = random_positive_braid_knot(6, 20, 3)
    checked = []
    for cls in (BraidWord, GaussCode, DTCode):
        def counting(self, post_init=cls.__post_init__):
            checked.append(type(self).__name__)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    parsed = parse_braid(str(word))
    gauss, _ = closure_gauss(parsed)
    gauss_to_dt(gauss)
    ab_counts(parsed)
    min_warp(gauss)
    reduce_to_base(parsed)
    assert parsed == word
    assert checked == []
    # the spies are live: the public constructors still check
    BraidWord(2, ((1, 1),))
    parse_gauss("1 -1")
    DTCode((2,))
    assert checked == ["BraidWord", "GaussCode", "DTCode"]


def test_reduce_to_base_recounts_nothing_and_revalidates_no_word(monkeypatch):
    calls = {"ab_counts": 0, "_closure_walk": 0, "__post_init__": 0}
    originals = {name: getattr(braid, name) for name in ("ab_counts", "_closure_walk")}
    post_init = BraidWord.__post_init__

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)
        return wrapper

    def counted_post_init(self):
        calls["__post_init__"] += 1
        post_init(self)

    word = parse_braid("s1^201")
    for name in originals:
        monkeypatch.setattr(braid, name, counted(name))
    monkeypatch.setattr(BraidWord, "__post_init__", counted_post_init)
    base, steps = reduce_to_base(word)
    assert (str(base), len(steps), steps[0].counts_before) == ("1", 100, (101, 100))
    # the one walk is the word's gate; it counts nothing and builds no word
    assert calls == {"ab_counts": 0, "_closure_walk": 1, "__post_init__": 0}
    # the counters are live: a recount and a checked word trip them
    braid.ab_counts(base)
    BraidWord(2, ((1, 1),))
    assert calls == {"ab_counts": 1, "_closure_walk": 2, "__post_init__": 1}


# the public readers of a word's closure facts: the knot order, the
# passage walk and the positivity
CLOSURE_READERS = (*KNOT_ENTRY_POINTS, closure_components, BraidWord.is_positive)


def test_a_word_sweeps_its_closure_once(monkeypatch):
    calls = {"_closure_walk": 0, "_below": 0}
    originals = {"_closure_walk": braid._closure_walk, "_below": GaussCode._below.compute}

    def counted(name):
        def wrapper(*args):
            calls[name] += 1
            return originals[name](*args)
        return wrapper

    text = str(random_positive_braid_knot(6, 20, 5))
    monkeypatch.setattr(braid, "_closure_walk", counted("_closure_walk"))
    monkeypatch.setattr(GaussCode._below, "compute", counted("_below"))
    readers = (ab_counts, closure_gauss, positive_unknotting, reduce_to_base, closure_components, pd_from_braid)
    # one benchmark item, then every other reader of the word's closure
    word = parse_braid(text)
    ab_counts(word)
    positive_unknotting(word)
    gauss, _ = closure_gauss(word)
    gauss_to_dt(gauss)
    min_warp(gauss)
    reduce_to_base(word)
    assert calls == {"_closure_walk": 1, "_below": 1}
    for function in readers:
        function(word)
    assert calls == {"_closure_walk": 1, "_below": 1}
    assert closure_gauss(word)[0] is closure_gauss(word)[0] is gauss
    # a word first read by a reader of its order alone walks it once too
    for first in (positive_unknotting, reduce_to_base):
        word = parse_braid(text)
        first(word)
        for function in readers:
            function(word)
    assert calls == {"_closure_walk": 3, "_below": 3}
    # the spies are live: another word sweeps its own closure, and a fresh
    # copy of the code builds its own below-set
    ab_counts(parse_braid("1 1 1"))
    min_warp(GaussCode(gauss.passages))
    assert calls == {"_closure_walk": 4, "_below": 5}


def _outcome(function, word):
    try:
        return "value", function(word)
    except ValueError as exc:
        return "error", str(exc)


@given(
    st.one_of(positive_knot_words(), signed_knot_words(), signed_link_words()),
    st.permutations(CLOSURE_READERS),
    st.permutations(CLOSURE_READERS),
)
@settings(max_examples=150)
def test_stored_closure_facts_change_no_result(word, first, second):
    # each reader, called twice in a drawn order on one shared word, gives
    # what it gives on a fresh copy of the word; a link word may have
    # padding strands, which no parse gives, so the copies are built
    shared = BraidWord(word.strands, word.letters)
    for function in (*first, *second):
        assert _outcome(function, shared) == _outcome(function, BraidWord(word.strands, word.letters))
    fresh = BraidWord(word.strands, word.letters)
    assert (shared, hash(shared), repr(shared)) == (fresh, hash(fresh), repr(fresh))
    if closure_components(word) == 1:
        assert list(vars(shared)["_walk"][1].passages) == roles_by_rounds(word)
    else:
        # a link raises on every call and stores no walk
        assert "_walk" not in vars(shared)
        assert all(_outcome(f, shared)[0] == "error" for f in KNOT_ENTRY_POINTS)
