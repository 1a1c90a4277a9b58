import importlib.util
import pathlib
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rollercoaster import (
    AmbiguousMatch,
    BraidWord,
    DTCode,
    Laurent,
    closure_components,
    identify,
    jones,
    kauffman_bracket,
    load_jones_refs,
    match_jones,
    parse_braid,
    parse_dt,
    parse_jones_refs,
    pd_from_braid,
    realize,
)
from rollercoaster import invariants
from rollercoaster.catalog import load_catalog
from rollercoaster.invariants import BracketCapExceeded

from oracles import skein_bracket, state_sum_bracket

RIGHT_TREFOIL = Laurent({4: 1, 12: 1, 16: -1})  # t + t^3 - t^4

_REFS_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_jones_refs.py"
_spec = importlib.util.spec_from_file_location("make_jones_refs", _REFS_SCRIPT)
make_jones_refs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_jones_refs)


def torus_braid(p: int, q: int):
    """(s1 s2 ... s_(p-1))^q, whose closure is the (p, q) torus knot."""
    return parse_braid(" ".join([" ".join(f"s{i}" for i in range(1, p))] * q))


def test_laurent_arithmetic():
    a = Laurent({0: 1, 4: 2})
    b = Laurent({-4: 3})
    assert (a + b).coeffs == {0: 1, 4: 2, -4: 3}
    assert (a * b).coeffs == {-4: 3, 0: 6}
    assert (a - a).coeffs == {}
    assert (b ** 2).coeffs == {-8: 9}
    assert a.shift(4).coeffs == {4: 1, 8: 2}
    assert a.mirror().coeffs == {0: 1, -4: 2}


def test_laurent_eval_and_span():
    assert RIGHT_TREFOIL.eval_at_unit(1) == 1
    assert abs(RIGHT_TREFOIL.eval_at_unit(-1)) == 3
    assert RIGHT_TREFOIL.span() == Fraction(3)


def test_laurent_str_uses_quarter_powers():
    assert str(Laurent({4: 1})) == "t"
    assert "t^(1/4)" in str(Laurent({1: 1}))


def test_bracket_of_positive_kink():
    diagram = pd_from_braid(parse_braid("1", strands=2))
    assert kauffman_bracket(diagram).coeffs == {3: -1}


def test_jones_of_kinks_is_one():
    for word in ("1", "-1"):
        diagram = pd_from_braid(parse_braid(word, strands=2))
        assert jones(diagram) == Laurent({0: 1})


def test_jones_of_trefoil_braid():
    assert jones(pd_from_braid(parse_braid("1 1 1"))) == RIGHT_TREFOIL


def test_jones_figure_eight_palindromic():
    poly = jones(realize(DTCode((4, 6, 8, 2))))
    assert poly == poly.mirror()
    assert poly.coeffs == {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}


def test_bracket_cap(monkeypatch):
    # T(9,10): 80 crossings whose greedy order opens 18 edges at once
    smoothed = []
    real_arcs = invariants._smoothing_arcs
    monkeypatch.setattr(invariants, "_smoothing_arcs", lambda *args: smoothed.append(args) or real_arcs(*args))
    with pytest.raises(BracketCapExceeded, match="^frontier of 18 open edges exceeds the limit of 16$"):
        kauffman_bracket(pd_from_braid(torus_braid(9, 10)))
    assert smoothed == []
    kauffman_bracket(pd_from_braid(parse_braid("1 1 1")))
    assert smoothed  # the counter does see a contraction


def test_jones_past_sixteen_crossings_matches_torus_closed_form():
    # 17 and 24 crossings, frontiers of 4 and 10 open edges
    for p, q in ((2, 17), (5, 6)):
        poly = jones(pd_from_braid(torus_braid(p, q)))
        expected = make_jones_refs.torus_jones(p, q)
        assert poly in (expected, expected.mirror())


def test_state_sum_matches_skein_recursion_on_small_diagrams():
    diagrams = [pd_from_braid(parse_braid(w)) for w in ("1", "1 1 1", "1 2 1 2")]
    diagrams += [
        realize(parse_dt(t))
        for t in ("[4, 6, 2]", "[4, 6, 8, 2]", "[-8, 10, 2, -12, 6, 4]",
                  "[12, -14, 16, -2, 4, -6, 8, -10]")
    ]
    for diagram in diagrams:
        assert kauffman_bracket(diagram) == skein_bracket(diagram)


def test_state_sum_matches_skein_on_catalog_rows_up_to_eight():
    for entry in load_catalog():
        if len(entry.dt.entries) > 8:
            continue
        diagram = realize(entry.dt)
        assert kauffman_bracket(diagram) == skein_bracket(diagram), entry.name


@st.composite
def signed_knot_words(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    extra = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=11 - n))
    letters = draw(st.permutations(list(range(1, n)) + extra))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(letters), max_size=len(letters)))
    return BraidWord(n, tuple(zip(letters, signs)))


@given(signed_knot_words())
@settings(max_examples=150, deadline=None)
def test_contraction_matches_both_oracles_on_braid_closures(word):
    assume(closure_components(word) == 1)
    diagram = pd_from_braid(word)
    bracket = kauffman_bracket(diagram)
    assert bracket == state_sum_bracket(diagram)
    assert bracket == skein_bracket(diagram)


def test_contraction_matches_state_sum_on_every_catalog_witness():
    for entry in load_catalog():
        diagram = realize(entry.dt)
        assert kauffman_bracket(diagram) == state_sum_bracket(diagram), entry.name


def test_parse_jones_refs_format():
    refs = parse_jones_refs([
        "# comment",
        "3_1; 4:1 12:1 16:-1; right-handed witness",
        "unknot; 0:1; trivial",
    ])
    assert refs["3_1"] == RIGHT_TREFOIL
    assert refs["unknot"] == Laurent({0: 1})
    with pytest.raises(ValueError, match="duplicate"):
        parse_jones_refs(["3_1; 0:1; a", "3_1; 0:1; b"])
    for term in ("0:a", "4:", "+4:1", "4:1_0", "\u0661\u0662:-1", "4:\u0661"):
        with pytest.raises(ValueError, match=f"^line 1: malformed term {re.escape(repr(term))}$"):
            parse_jones_refs([f"3_1; {term}; bad"])
    with pytest.raises(ValueError, match="^line 2: duplicate exponent 4$"):
        parse_jones_refs(["# comment", "3_1; 4:1 4:-1; x"])
    with pytest.raises(ValueError, match="^line 1: no terms$"):
        parse_jones_refs(["3_1; ; x"])
    with pytest.raises(ValueError, match="^line 1: zero polynomial$"):
        parse_jones_refs(["3_1; 0:0; x"])
    with pytest.raises(ValueError, match="^line 2: empty knot name$"):
        parse_jones_refs(["unknot; 0:1; x", "; 0:1; x"])


def test_packaged_refs_cover_catalog():
    refs = load_jones_refs()
    names = {entry.name for entry in load_catalog()}
    assert set(refs) == names


def test_match_jones_finds_mirrors():
    refs = {"3_1": RIGHT_TREFOIL}
    assert match_jones(RIGHT_TREFOIL, refs) == ["3_1"]
    assert match_jones(RIGHT_TREFOIL.mirror(), refs) == ["3_1"]
    assert match_jones(Laurent({0: 1}), refs) == []


def test_identify_unique_none_and_ambiguous():
    refs = load_jones_refs()
    assert identify(realize(DTCode((4, 6, 2))), refs) == "3_1"
    assert identify(pd_from_braid(parse_braid("1", strands=2)), refs) is None
    doubled = dict(refs)
    doubled["fake"] = refs["3_1"]
    with pytest.raises(AmbiguousMatch) as exc:
        identify(realize(DTCode((4, 6, 2))), doubled)
    assert set(exc.value.names) == {"3_1", "fake"}


def test_torus_knot_against_closed_form():
    # (3,4) torus knot: t^3 + t^5 - t^8
    poly = jones(pd_from_braid(parse_braid("1 2 1 2 1 2 1 2")))
    assert poly == Laurent({12: 1, 20: 1, 32: -1})
