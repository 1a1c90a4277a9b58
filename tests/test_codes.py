import re

import pytest
from hypothesis import given, strategies as st

from rollercoaster import (
    Basepoint,
    DTCode,
    FramingError,
    GaussCode,
    dt_to_gauss,
    gauss_to_dt,
    is_reduced,
    mirror,
    parse_dt,
    parse_gauss,
)
from rollercoaster.catalog import CatalogError, Range, RCCrossing
from rollercoaster.codes import format_dt, format_gauss
from rollercoaster.embed import Crossing
from rollercoaster.invariants import Laurent, parse_jones_refs
from rollercoaster.search import conjecture_report, enumerate_alternating
from rollercoaster.warp import warp_from, warp_profile

from oracles import (
    DT_TOKEN,
    GAUSS_TOKEN,
    canonical_dt,
    dt_by_grammar,
    dt_by_partner_array,
    dt_relabellings,
    gauss_by_grammar,
    gauss_code_problem,
    gauss_variants,
    reduced_by_counting,
    reverse,
    rotate,
)

TREFOIL = DTCode((4, 6, 2))
FIG8 = DTCode((4, 6, 8, 2))


def test_parse_dt_bracketed_and_bare():
    assert parse_dt("[4, 6, 2]") == TREFOIL
    assert parse_dt("4 6 2") == TREFOIL
    assert parse_dt("-8,10,2,-12,6,4").entries == (-8, 10, 2, -12, 6, 4)


def test_parse_dt_rejects_bad_entries():
    with pytest.raises(ValueError, match="odd entry"):
        parse_dt("[4, 5, 2]")
    with pytest.raises(ValueError, match="cover"):
        parse_dt("[4, 8, 2]")
    with pytest.raises(ValueError, match="duplicate"):
        parse_dt("[4, -4, 2]")


@pytest.mark.parametrize("entries", [(4.0, 6, 2), ("4", 6, 2), (True, 4)])
def test_dt_code_refuses_non_integer_entries(entries):
    # refused, not converted: DTCode((4.0, 6, 2)) would print [4.0, 6, 2]
    message = f"DT entries must be nonzero even integers, got {entries[0]!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DTCode(entries)


@pytest.mark.parametrize("build, message", [
    (lambda: Range(1.5, 2), "range bounds must be integers, got 1.5"),
    (lambda: Range(True, 2), "range bounds must be integers, got True"),
    (lambda: Range(1, "2"), "range bounds must be integers, got '2'"),
    (lambda: RCCrossing(3.5, None), "rc-crossing sizes must be integers, got 3.5"),
    (lambda: RCCrossing(8, True), "rc-crossing sizes must be integers, got True"),
    (lambda: Crossing((1, 2, 3, 4), (0, 2), True), "crossing sign must be +1 or -1, got True"),
    (lambda: Crossing((1, 2.0, 3, 4), (0, 2), 1), "edge ids must be integers, got 2.0"),
    (lambda: Crossing((1, 2, 3, 4), (0.0, 2), 1), "over-strand slots must be integers, got 0.0"),
    (lambda: warp_from(parse_gauss("1 -2 3 -1 2 -3"), Basepoint(1.5)),
     "basepoint edge must be an integer, got 1.5"),
    (lambda: Basepoint(True), "basepoint edge must be an integer, got True"),
    (lambda: list(enumerate_alternating(4.0)), "crossing number must be an integer, got 4.0"),
    (lambda: conjecture_report(4.0), "crossing number must be an integer, got 4.0"),
    # int() would store a zero coefficient, or move 0.9 to exponent 0
    (lambda: Laurent({0: 0.4}), "coefficients must be integers, got 0.4"),
    (lambda: Laurent({0.9: 1}), "exponents must be integers, got 0.9"),
    (lambda: DTCode((4.0, 6, 2)), "DT entries must be nonzero even integers, got 4.0"),
    (lambda: GaussCode((("1", "O"), (1, "U"))), "crossing ids must be integers, got '1'"),
])
def test_checked_constructors_refuse_non_integer_fields(build, message):
    # one rule, codes._check_int: refused with the value named, never converted
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


@pytest.mark.parametrize("forward", ["False", None, 0, 1])
def test_basepoint_refuses_a_direction_that_is_not_a_bool(forward):
    # "False" would read forward and None backward, in a basepoint or a
    # profile, and neither basepoint would equal the bool one it reads as
    with pytest.raises(ValueError) as caught:
        Basepoint(1, forward)
    assert str(caught.value) == f"basepoint direction must be a bool, got {forward!r}"
    code = parse_gauss("1 -2 3 -1 2 -3")
    with pytest.raises(ValueError) as caught:
        warp_profile(code, forward)
    assert str(caught.value) == f"basepoint direction must be a bool, got {forward!r}"
    assert (warp_from(code, Basepoint(1)).degree, warp_from(code, Basepoint(1, False)).degree) == (2, 1)


@pytest.mark.parametrize("build, message", [
    (lambda: RCCrossing(None, None), "rc-crossing needs a value or a bound"),
    (lambda: warp_from(parse_gauss("1 -2 3 -1 2 -3"), Basepoint(6)), "basepoint edge 6 out of range for 6 passages"),
    (lambda: warp_from(parse_gauss("1 -2 3 -1 2 -3"), Basepoint(-1)),
     "basepoint edge -1 out of range for 6 passages"),
    (lambda: Laurent({0: 1}).eval_at_unit(2), "only t = 1 and t = -1 are supported"),
    # refused, not compared: -1.0 == -1 and True == 1
    (lambda: Laurent({4: 1}).eval_at_unit(-1.0), "t must be an integer, got -1.0"),
    (lambda: Laurent({4: 1}).eval_at_unit(True), "t must be an integer, got True"),
    (lambda: Laurent({1: 1}).eval_at_unit(1), "polynomial has fractional t-powers"),
    (lambda: parse_jones_refs(["3_1"]), "line 1: expected 'name; exp:coeff ...; note'"),
])
def test_values_out_of_range_are_refused(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


def test_rc_crossing_refuses_a_negative_size():
    with pytest.raises(CatalogError, match=r"^negative rc-crossing size -1$"):
        RCCrossing(None, -1)


@pytest.mark.parametrize("parse, text, message", [
    (parse_dt, "4 6 0_2", "malformed DT token '0_2'"),
    (parse_dt, "+4 6 2", "malformed DT token '+4'"),
    (parse_dt, "\u0664 6 2", "malformed DT token '\u0664'"),
    (parse_gauss, "1 -2 3 -1 2 -0_3", "malformed Gauss token '-0_3'"),
    (parse_gauss, "+1 -2 3 -1 2 -3", "malformed Gauss token '+1'"),
    (parse_gauss, "\u0661 -2 3 -1 2 -3", "malformed Gauss token '\u0661'"),
    (parse_dt, "[4,\u00a06, 2]", "malformed DT token " + repr("\u00a06")),
    (parse_dt, "\u2003[4, 6, 2]", "malformed DT token " + repr("\u2003[4")),
    (parse_gauss, "1\u2003-2 3 -1 2 -3", "malformed Gauss token " + repr("1\u2003-2")),
    (parse_gauss, "1 -2 3 -1 2 -3\u3000", "malformed Gauss token " + repr("-3\u3000")),
])
def test_code_parsers_read_only_ascii_integer_tokens(parse, text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(text)


def test_code_parsers_take_every_ascii_blank():
    assert parse_dt(" \t[4,\x0b6,\x0c2]\r\n") == TREFOIL
    assert parse_gauss("\t1 -3\x0b2,-1\x0c3\r-2\n") == parse_gauss("1 -3 2 -1 3 -2")


def test_format_dt_round_trip():
    assert format_dt(TREFOIL) == "[4, 6, 2]"
    assert parse_dt(format_dt(FIG8)) == FIG8


def test_dt_to_gauss_trefoil_passage_sequence():
    # crossing i owns odd label 2i-1; all-positive entries put every even
    # passage under
    gauss = dt_to_gauss(TREFOIL)
    assert gauss.passages == (
        (1, "O"), (3, "U"), (2, "O"), (1, "U"), (3, "O"), (2, "U")
    )


def test_dt_to_gauss_negative_entry_flips_even_passage():
    gauss = dt_to_gauss(DTCode((-4, -6, -2)))
    assert gauss.passages[0] == (1, "U")
    assert gauss.passages[1] == (3, "O")


def test_gauss_round_trip_on_catalog_style_codes():
    for text in ("[4, 6, 2]", "[-8, 10, 2, -12, 6, 4]", "[12, -14, 16, -2, 4, -6, 8, -10]"):
        code = parse_dt(text)
        assert gauss_to_dt(dt_to_gauss(code)) == code


def test_gauss_to_dt_rejects_same_parity_pairing():
    # a non-planar pairing where both passages of a crossing land on the
    # same parity has no DT form
    bad = GaussCode(((1, "O"), (2, "O"), (1, "U"), (2, "U")))
    with pytest.raises(FramingError, match="^crossing 1 met at labels 1 and 3 of equal parity$"):
        gauss_to_dt(bad)
    # the message names the equal-parity chord that opens first: here
    # crossing 1's (labels 1 and 5), though crossing 2's (2 and 4) closes first
    bad = GaussCode(((1, "O"), (2, "O"), (3, "O"), (2, "U"), (1, "U"), (3, "U")))
    with pytest.raises(FramingError, match="^crossing 1 met at labels 1 and 5 of equal parity$"):
        gauss_to_dt(bad)


def test_parse_gauss_positive_means_over():
    gauss = parse_gauss("1 -3 2 -1 3 -2")
    assert gauss.passages[0] == (1, "O")
    assert gauss.passages[1] == (3, "U")
    assert parse_gauss(format_gauss(gauss)) == gauss


def test_rotate_and_reverse_shift_passages():
    gauss = dt_to_gauss(TREFOIL)
    assert rotate(gauss, 1).passages[0] == gauss.passages[1]
    assert rotate(gauss, len(gauss.passages)) == gauss
    assert reverse(reverse(gauss)) == gauss


def test_mirror_swaps_roles():
    gauss = dt_to_gauss(TREFOIL)
    flipped = mirror(gauss)
    assert all(
        (i1 == i2 and r1 != r2)
        for (i1, r1), (i2, r2) in zip(gauss.passages, flipped.passages)
    )
    assert mirror(flipped) == gauss


def test_canonical_dt_is_class_invariant():
    base = canonical_dt(TREFOIL)
    gauss = dt_to_gauss(TREFOIL)
    for k in range(6):
        assert canonical_dt(gauss_to_dt(rotate(gauss, k))) == base
        assert canonical_dt(gauss_to_dt(reverse(rotate(gauss, k)))) == base


def test_rotations_of_planar_codes_never_lose_framing():
    # paired passages of a realizable code sit at odd cyclic distance, so
    # every basepoint shift keeps one odd and one even label per crossing
    for text in ("[4, 6, 2]", "[4, 6, 8, 2]", "[-8, 10, 2, -12, 6, 4]"):
        gauss = dt_to_gauss(parse_dt(text))
        for k in range(len(gauss.passages)):
            gauss_to_dt(rotate(gauss, k))
            gauss_to_dt(reverse(rotate(gauss, k)))


def test_is_reduced_detects_kinks():
    assert is_reduced(dt_to_gauss(TREFOIL))
    # appending a crossing paired with adjacent labels 17, 18 is a kink
    kinked = dt_to_gauss(DTCode((10, 12, 14, 4, 16, 2, 6, 8, 18)))
    assert not is_reduced(kinked)
    assert not is_reduced(dt_to_gauss(DTCode((2,))))


def test_basepoint_str():
    assert str(Basepoint(0)) == "edge 0 forward"
    assert str(Basepoint(3, forward=False)) == "edge 3 backward"


@st.composite
def abstract_gauss(draw):
    c = draw(st.integers(min_value=1, max_value=6))
    slots = list(range(2 * c))
    order = draw(st.permutations(slots))
    passages = [None] * (2 * c)
    for ident in range(1, c + 1):
        first, second = order[2 * ident - 2], order[2 * ident - 1]
        over_first = draw(st.booleans())
        passages[first] = (ident, "O" if over_first else "U")
        passages[second] = (ident, "U" if over_first else "O")
    return GaussCode(tuple(passages))


def _assert_gauss_code_verdict(passages):
    expected = gauss_code_problem(passages)
    if expected is None:
        assert GaussCode(passages).passages == tuple((i, r) for i, r in passages)
    else:
        with pytest.raises(ValueError) as raised:
            GaussCode(passages)
        assert str(raised.value) == expected


@pytest.mark.parametrize("passages, message", [
    ((), None),
    (((1, "O"), (1, "U")), None),
    ([[1, "O"], [1, "U"]], None),
    (((1, "O"),), "crossing 1 must occur exactly once over and once under"),
    (((1, "O"), (1, "O")), "crossing 1 must occur exactly once over and once under"),
    (((1, "O"), (2, "U")), "crossing 1 must occur exactly once over and once under"),
    (((1, "O"), (1, "U"), (1, "O"), (1, "U")), "crossing 1 must occur exactly once over and once under"),
    # both crossings are bad; the one met first is named
    (((3, "O"), (1, "O"), (1, "O"), (3, "O")), "crossing 3 must occur exactly once over and once under"),
    (((2, "O"), (1, "U"), (2, "U"), (1, "U"), (1, "O")), "crossing 1 must occur exactly once over and once under"),
    # a bad role is named before any crossing check, wherever it sits
    (((1, "O"), (1, "O"), (2, "X")), "bad strand role 'X'"),
    (((1, "o"), (1, "U")), "bad strand role 'o'"),
    (((1, 1), (1, "U")), "bad strand role 1"),
    # an id is refused, not converted, wherever it sits
    ((("1", "O"), (1, "U")), "crossing ids must be integers, got '1'"),
    # int(1.5) and int(1.7) would merge two crossings into one
    (((1.5, "O"), (1.7, "U")), "crossing ids must be integers, got 1.5"),
    (((1, "O"), (True, "X")), "crossing ids must be integers, got True"),
])
def test_gauss_code_rejections_pinned(passages, message):
    assert gauss_code_problem(passages) == message
    _assert_gauss_code_verdict(passages)


@st.composite
def mutated_gauss(draw):
    """A valid Gauss sequence after one to three edits: drop a passage,
    duplicate one, flip a role, set a role to "X", or spell an id as a
    string, which is refused."""
    passages = list(draw(abstract_gauss()).passages)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        if not passages:
            break
        k = draw(st.integers(min_value=0, max_value=len(passages) - 1))
        ident, role = passages[k]
        edit = draw(st.sampled_from(("drop", "duplicate", "flip", "X", "string")))
        if edit == "drop":
            del passages[k]
        elif edit == "duplicate":
            passages.insert(draw(st.integers(min_value=0, max_value=len(passages))), (ident, role))
        elif edit == "flip":
            passages[k] = (ident, {"O": "U", "U": "O"}.get(role, role))
        elif edit == "X":
            passages[k] = (ident, "X")
        else:
            passages[k] = (str(ident), role)
    return tuple(passages)


@given(mutated_gauss())
def test_gauss_code_rejects_like_oracle(passages):
    _assert_gauss_code_verdict(passages)


@given(abstract_gauss())
def test_mirror_is_involution(gauss):
    assert mirror(mirror(gauss)) == gauss


@given(abstract_gauss(), st.integers(min_value=0, max_value=12))
def test_rotate_composes_modulo_length(gauss, k):
    n = len(gauss.passages)
    assert rotate(gauss, k).passages == rotate(gauss, k % n).passages


@given(abstract_gauss())
def test_reverse_is_involution(gauss):
    assert reverse(reverse(gauss)) == gauss


@st.composite
def signed_dt(draw):
    c = draw(st.integers(min_value=1, max_value=8))
    perm = draw(st.permutations(range(2, 2 * c + 1, 2)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=c, max_size=c))
    return DTCode(tuple(s * e for s, e in zip(signs, perm)))


@given(signed_dt())
def test_built_codes_equal_their_checked_rebuild(code):
    # dt_to_gauss, mirror and gauss_to_dt build their results unchecked
    gauss = dt_to_gauss(code)
    for built in (gauss, mirror(gauss)):
        assert GaussCode(built.passages) == built
    dt = gauss_to_dt(gauss)
    assert DTCode(dt.entries) == dt == code


# near-grammar text: the grammars' characters, "+", "_", a superscript
# digit, a non-ASCII decimal digit, a tab and a space
NEAR_CODE_ALPHABET = "0123456789-+_[],\u00b2\u0663\t "


@st.composite
def near_code_texts(draw, token, codes):
    """A string over NEAR_CODE_ALPHABET, or the tokens of a drawn valid
    code with up to two of them swapped for ``token`` matches or short
    near-grammar strings, joined by a drawn separator and maybe bracketed."""
    if draw(st.booleans()):
        return draw(st.text(alphabet=NEAR_CODE_ALPHABET, max_size=20))
    tokens = draw(codes)
    near = st.one_of(st.from_regex(token, fullmatch=True), st.text(alphabet=NEAR_CODE_ALPHABET, min_size=1, max_size=4))
    for k in draw(st.lists(st.integers(0, max(len(tokens) - 1, 0)), max_size=2 if tokens else 0)):
        tokens[k] = draw(near)
    text = draw(st.sampled_from([" ", ", ", ",", "\t"])).join(tokens)
    return f"[{text}]" if draw(st.booleans()) else text


def _read_outcome(reader, text):
    try:
        return "value", reader(text)
    except ValueError as exc:
        return "error", str(exc)


@given(near_code_texts(DT_TOKEN, signed_dt().map(lambda code: [str(e) for e in code.entries])))
def test_parse_dt_accepts_exactly_the_token_grammar(text):
    # the same code, or the same message for the same first bad token
    outcome = _read_outcome(parse_dt, text)
    assert outcome == _read_outcome(dt_by_grammar, text)
    if outcome[0] == "value":
        assert parse_dt(format_dt(outcome[1])) == outcome[1]


@given(near_code_texts(GAUSS_TOKEN, abstract_gauss().map(lambda code: format_gauss(code).split())))
def test_parse_gauss_accepts_exactly_the_token_grammar(text):
    outcome = _read_outcome(parse_gauss, text)
    assert outcome == _read_outcome(gauss_by_grammar, text)
    if outcome[0] == "value":
        assert parse_gauss(format_gauss(outcome[1])) == outcome[1]


@st.composite
def framable_gauss(draw):
    """The Gauss sequence of a signed DT code read from a drawn basepoint,
    in a drawn direction."""
    gauss = rotate(dt_to_gauss(draw(signed_dt())), draw(st.integers(min_value=0, max_value=15)))
    return reverse(gauss) if draw(st.booleans()) else gauss


def _dt_outcome(function, gauss):
    try:
        return "value", function(gauss)
    except FramingError as exc:
        return "error", str(exc)


@given(st.one_of(abstract_gauss(), framable_gauss()))
def test_gauss_to_dt_matches_the_partner_array_oracle(gauss):
    # abstract pairings mostly carry several equal-parity chords
    assert _dt_outcome(gauss_to_dt, gauss) == _dt_outcome(dt_by_partner_array, gauss)


@given(abstract_gauss())
def test_gauss_to_dt_equals_its_checked_rebuild(gauss):
    try:
        dt = gauss_to_dt(gauss)
    except FramingError:
        return
    assert DTCode(dt.entries) == dt


@given(signed_dt())
def test_dt_relabellings_match_gauss_rotations(code):
    assert list(dt_relabellings(code.entries)) == gauss_variants(dt_to_gauss(code))


@given(abstract_gauss())
def test_canonical_dt_is_least_framable_variant(gauss):
    framable = [v for v in gauss_variants(gauss) if v is not None]
    if framable:
        assert canonical_dt(gauss).entries == min(framable)
    else:
        with pytest.raises(FramingError):
            canonical_dt(gauss)


@st.composite
def kinked_dt(draw):
    """A signed DT code with one extra crossing met twice in a row."""
    passages = list(dt_to_gauss(draw(signed_dt())).passages)
    k = draw(st.integers(min_value=0, max_value=len(passages)))
    roles = draw(st.sampled_from((("O", "U"), ("U", "O"))))
    ident = len(passages) // 2 + 1
    passages[k:k] = [(ident, roles[0]), (ident, roles[1])]
    return gauss_to_dt(GaussCode(tuple(passages)))


@given(abstract_gauss())
def test_is_reduced_matches_counting_oracle(gauss):
    assert is_reduced(gauss) == reduced_by_counting(gauss)


@given(kinked_dt())
def test_kinked_codes_are_not_reduced(code):
    gauss = dt_to_gauss(code)
    assert not is_reduced(gauss)
    assert not reduced_by_counting(gauss)
