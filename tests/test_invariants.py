import importlib.util
import io
import pathlib
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rollercoaster import (
    BraidWord,
    DTCode,
    Laurent,
    closure_components,
    closure_gauss,
    dt_to_gauss,
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
from rollercoaster.embed import Crossing, PlanarDiagram
from rollercoaster.invariants import BracketCapExceeded
from rollercoaster.search import enumerate_alternating

from oracles import fox_determinant, greedy_order_by_intersection, skein_bracket, state_sum_bracket

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
    assert a.mirror().coeffs == {0: 1, -4: 2}
    # its coefficients are a mutable dict, so a polynomial is no dict key
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    # no product or negation: the bracket and jones work on coefficient dicts
    with pytest.raises(TypeError):
        a * b
    with pytest.raises(TypeError):
        -b


def test_laurent_eval_and_span():
    assert RIGHT_TREFOIL.eval_at_unit(1) == 1
    assert abs(RIGHT_TREFOIL.eval_at_unit(-1)) == 3
    assert RIGHT_TREFOIL.span() == Fraction(3)
    assert Laurent({}).span() == 0


def test_laurent_str_uses_quarter_powers():
    assert str(Laurent({4: 1})) == "t"
    assert "t^(1/4)" in str(Laurent({1: 1}))
    assert str(Laurent({})) == "0"
    assert str(Laurent({0: 3, 4: -2})) == "3 - 2*t"


def test_bracket_of_positive_kink():
    diagram = pd_from_braid(parse_braid("1"))
    assert kauffman_bracket(diagram).coeffs == {3: -1}


def test_jones_of_kinks_is_one():
    for word in ("1", "-1"):
        diagram = pd_from_braid(parse_braid(word))
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


def test_contraction_matches_state_sum_on_every_alternating_class_up_to_eight():
    diagrams = [realize(code) for c in range(3, 9) for code in enumerate_alternating(c)]
    assert len(diagrams) == 54
    for diagram in diagrams:
        assert kauffman_bracket(diagram) == state_sum_bracket(diagram), diagram


def test_contraction_matches_state_sum_past_frontier_width_six():
    # up to width 6 the partners of every other open edge fix the
    # matching, so only a wider frontier tests that a state's key reads
    # every partner; this 12-crossing closure opens 8 edges at once
    diagram = pd_from_braid(parse_braid("-3 3 -3 3 -2 -4 -3 4 2 3 1 -4"))
    _, width = assert_order_matches_oracle(diagram)
    assert (diagram.size, width) == (12, 8)
    assert kauffman_bracket(diagram) == state_sum_bracket(diagram)


_SMALL_WITNESSES = [realize(entry.dt) for entry in load_catalog() if len(entry.dt.entries) <= 9]


@given(
    st.one_of(
        st.sampled_from(_SMALL_WITNESSES),
        signed_knot_words().filter(lambda word: closure_components(word) == 1).map(pd_from_braid),
    ),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_contraction_is_unchanged_by_relabelling(diagram, data):
    """Permuting the crossings and renaming the edge ids by a bijection,
    each crossing keeping its rotation, over-slots and sign, moves the
    placement order and its ties, and so which matching's partner list
    reaches a shared key first; the bracket must not move."""
    c = diagram.size
    order = data.draw(st.permutations(range(c)))
    names = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=2 * c, max_size=2 * c, unique=True))
    rename = dict(zip(sorted({e for x in diagram.crossings for e in x.edges}), names))
    moved = [diagram.crossings[ci] for ci in order]
    relabelled = PlanarDiagram(tuple(Crossing(tuple(rename[e] for e in x.edges), x.over, x.sign) for x in moved))
    bracket = kauffman_bracket(relabelled)
    assert bracket == kauffman_bracket(diagram)
    assert bracket == state_sum_bracket(relabelled)


def assert_order_matches_oracle(diagram):
    """The order equals the oracle's.  The walk's slots: an edge keeps the
    slot it opens with until the crossing that closes it; the slots that
    open at a step are exactly those of the edges that open there; no two
    edges open during one step, the frontier before it or the edges it
    opens, share a slot, so each frontier's slots are distinct and no slot
    is handed out at the crossing that frees it; the edges open after each
    step are the oracle's frontier, and the step's frontier slots are
    theirs in the order they opened; and no more slots are handed out
    than the widest frontier plus four.  Returns the order and the widest
    frontier."""
    order, steps, size = invariants._crossing_order(diagram)
    oracle_order, frontiers = greedy_order_by_intersection(diagram.crossings)
    assert order == oracle_order
    width = max(map(len, frontiers), default=0)
    assert len(steps) == len(order)
    slot_of: dict[int, int] = {}  # open edge id -> the slot it opened with
    for ci, after, (at, opened, after_slots) in zip(order, frontiers, steps):
        edges = diagram.crossings[ci].edges
        live = set(slot_of.values())
        assert len(live) == len(slot_of)
        new = {}  # edge id opening at this step -> its slot
        for e, slot in zip(edges, at):
            if e in slot_of:
                assert slot == slot_of[e], (e, slot)
            else:
                new.setdefault(e, slot)  # a kink's edge: both its rotation slots hold one slot
                assert slot == new[e], (e, slot)
        assert sorted(opened) == sorted(new.values())
        assert len(set(new.values())) == len(new) and not live & set(new.values())
        slot_of.update(new)
        for e in set(edges) - after:
            del slot_of[e]
        assert set(slot_of) == after
        assert tuple(after_slots) == tuple(slot_of.values())
    assert {s for at, _, _ in steps for s in at} <= set(range(size))
    assert size <= width + 4
    return order, width


@given(signed_knot_words())
@settings(max_examples=150, deadline=None)
def test_crossing_order_matches_the_intersection_oracle_on_braid_closures(word):
    assume(closure_components(word) == 1)
    assert_order_matches_oracle(pd_from_braid(word))


def test_crossing_order_matches_the_intersection_oracle_on_every_catalog_witness():
    for entry in load_catalog():
        assert_order_matches_oracle(realize(entry.dt))


def test_crossing_order_matches_the_intersection_oracle_on_two_strand_torus_knots():
    for n in range(1, 202, 2):
        order, width = assert_order_matches_oracle(pd_from_braid(parse_braid(f"s1^{n}")))
        assert sorted(order) == list(range(n))
        assert width == (0 if n == 1 else 4)  # s1 alone is a kink


def test_crossing_order_matches_the_intersection_oracle_on_t9_10():
    order, width = assert_order_matches_oracle(pd_from_braid(torus_braid(9, 10)))
    assert sorted(order) == list(range(80))
    assert width == 18


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
    for line, term in (("3_1; 4:1\u200312:1 16:-1; x", "4:1\u200312:1"), ("3_1; 4:1 16:-1\u00a0; x", "16:-1\u00a0")):
        with pytest.raises(ValueError, match=f"^line 1: malformed term {re.escape(repr(term))}$"):
            parse_jones_refs([line])
    assert parse_jones_refs(["\t3_1;\x0b4:1\t12:1\x0c16:-1 ;x\r"])["3_1"] == RIGHT_TREFOIL
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


def test_match_jones_equals_a_plain_comparison_loop():
    refs = load_jones_refs()
    doubled = dict(refs, fake=refs["3_1"])

    def plain(poly, table):
        return sorted(name for name, ref in table.items() if ref == poly or ref == poly.mirror())

    for table in (refs, doubled):
        for ref in refs.values():
            for poly in (ref, ref.mirror()):
                assert match_jones(poly, table) == plain(poly, table)
                assert match_jones(poly, table)
        nothing = Laurent({0: 2})
        assert match_jones(nothing, table) == plain(nothing, table) == []
    assert match_jones(refs["3_1"].mirror(), doubled) == ["3_1", "fake"]


def test_packaged_refs_equal_what_the_script_builds():
    assert make_jones_refs.table_text().encode("utf-8") == make_jones_refs.OUT.read_bytes()


def test_refs_script_writes_nothing_when_given_an_argument():
    before = make_jones_refs.OUT.stat().st_mtime_ns
    for arg, code in (("--help", 0), ("--bogus", 2)):
        run = subprocess.run([sys.executable, str(_REFS_SCRIPT), arg], capture_output=True, text=True, timeout=60)
        assert run.returncode == code, arg
        assert "wrote" not in run.stdout, arg
    assert make_jones_refs.OUT.stat().st_mtime_ns == before


# line breaks that str.splitlines takes and the readers must not
UNICODE_BREAKS = ("\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def test_load_jones_refs_breaks_lines_at_newlines_only(tmp_path, monkeypatch):
    path = tmp_path / "refs.dat"
    for ch in UNICODE_BREAKS:
        good = f"# notes may hold {ch}\n3_1; 4:1 12:1 16:-1; right{ch}handed\n"
        for text in (good, good.replace("\n", "\r\n"), good.replace("\n", "\r")):
            path.write_text(text, encoding="utf-8", newline="")
            assert load_jones_refs(path) == {"3_1": RIGHT_TREFOIL}
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert load_jones_refs("-") == {"3_1": RIGHT_TREFOIL}
        path.write_text(good + "4_1; 0:1 x; bad\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^line 3: malformed term 'x'$"):
            load_jones_refs(path)


def test_torus_knot_against_closed_form():
    # (3,4) torus knot: t^3 + t^5 - t^8
    poly = jones(pd_from_braid(parse_braid("1 2 1 2 1 2 1 2")))
    assert poly == Laurent({12: 1, 20: 1, 32: -1})


# the determinant |V(-1)| by Fox colouring of the Gauss code: a second
# route, through no diagram or bracket, to the value every Jones
# polynomial the catalog trusts must give at t = -1

def test_fox_determinant_matches_the_refs_and_the_engine_on_every_catalog_witness():
    refs = load_jones_refs()
    for entry in load_catalog():
        det = fox_determinant(dt_to_gauss(entry.dt).passages)
        assert det == abs(refs[entry.name].eval_at_unit(-1)), entry.name
        assert det == abs(jones(realize(entry.dt)).eval_at_unit(-1)), entry.name


def test_fox_determinant_matches_the_engine_on_every_alternating_class_up_to_nine():
    for c in range(3, 10):
        for code in enumerate_alternating(c):
            assert fox_determinant(dt_to_gauss(code).passages) == abs(jones(realize(code)).eval_at_unit(-1)), code


def test_fox_determinant_of_two_strand_torus_knots_is_their_crossing_count():
    for n in range(1, 42, 2):
        assert fox_determinant(closure_gauss(parse_braid(f"s1^{n}"))[0].passages) == n
