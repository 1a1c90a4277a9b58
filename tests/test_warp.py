from hypothesis import given, settings, strategies as st

from rollercoaster import (
    Basepoint,
    DTCode,
    GaussCode,
    ab_counts,
    apply_roller_coaster,
    closure_gauss,
    dt_to_gauss,
    min_warp,
    mirror,
    parse_dt,
    parse_gauss,
    warp_from,
    warp_profile,
)

from rollercoaster import warp
from oracles import ab_counts_by_warp, based_warp, min_warp_by_basepoint, warp_profile_by_basepoint
from test_braid import positive_knot_words, signed_knot_words
from test_codes import abstract_gauss, signed_dt

TREFOIL = dt_to_gauss(DTCode((4, 6, 2)))
FIG8 = dt_to_gauss(DTCode((4, 6, 8, 2)))


def test_trefoil_profiles():
    assert warp_profile(TREFOIL, forward=True) == [1, 2, 1, 2, 1, 2]
    assert warp_profile(TREFOIL, forward=False) == [2, 1, 2, 1, 2, 1]


def test_warp_from_below_set():
    result = warp_from(TREFOIL, Basepoint(0))
    assert result.degree == 1
    assert result.below == frozenset({3})


def test_min_warp_values():
    assert min_warp(TREFOIL).degree == 1
    assert min_warp(FIG8).degree == 1
    assert min_warp(dt_to_gauss(parse_dt("[12,14,16,2,4,6,8,10]"))).degree == 2


def test_min_warp_tie_break_prefers_smallest_edge_then_forward():
    cases = [
        # every edge ties at degree 1 one way or the other: edge 0, forward first
        ("1 -3 2 -1 3 -2", Basepoint(0, forward=True), 1),
        ("-1 3 -2 1 -3 2", Basepoint(0, forward=False), 1),
        # forward profile [1, 2, 1, 0]: the backward 0 at edge 1 comes
        # before the forward 0 at edge 3
        ("1 -2 -1 2", Basepoint(1, forward=False), 0),
        # forward profile [1, 0, 1, 2]: forward 0 at edge 1, backward 0 at edge 3
        ("-1 2 1 -2", Basepoint(1, forward=True), 0),
    ]
    for gauss, base, degree in cases:
        result = min_warp(parse_gauss(gauss))
        assert (result.base, result.degree) == (base, degree), gauss


def test_roller_coaster_reaches_descending_fixed_point():
    changed = apply_roller_coaster(TREFOIL, Basepoint(0))
    result = warp_from(changed, Basepoint(0))
    assert result.degree == 0
    assert apply_roller_coaster(changed, Basepoint(0)) == changed


def test_complement_on_trefoil():
    for edge in range(6):
        for forward in (True, False):
            base = Basepoint(edge, forward)
            d = warp_from(TREFOIL, base).degree
            dm = warp_from(mirror(TREFOIL), base).degree
            assert d + dm == 3


@given(abstract_gauss())
def test_complement_property(gauss):
    c = len(gauss.passages) // 2
    flipped = mirror(gauss)
    for edge in range(2 * c):
        base = Basepoint(edge)
        assert warp_from(gauss, base).degree + warp_from(flipped, base).degree == c


@given(abstract_gauss())
def test_adjacent_basepoints_differ_by_at_most_one(gauss):
    profile = warp_profile(gauss, forward=True)
    n = len(profile)
    for k in range(n):
        assert abs(profile[k] - profile[(k + 1) % n]) <= 1


@given(abstract_gauss())
def test_descending_fixed_point_property(gauss):
    base = Basepoint(0)
    changed = apply_roller_coaster(gauss, base)
    assert GaussCode(changed.passages) == changed
    assert warp_from(changed, base).degree == 0
    assert apply_roller_coaster(changed, base) == changed


@given(abstract_gauss())
def test_min_warp_at_most_half(gauss):
    # complement forces min(d, d_mirror) <= c/2
    c = len(gauss.passages) // 2
    assert min_warp(gauss).degree <= c - min_warp(mirror(gauss)).degree


@given(abstract_gauss())
def test_warp_profile_matches_oracle(gauss):
    for forward in (True, False):
        assert warp_profile(gauss, forward) == warp_profile_by_basepoint(gauss, forward)


@given(abstract_gauss())
def test_min_warp_matches_oracle(gauss):
    result, expected = min_warp(gauss), min_warp_by_basepoint(gauss)
    assert result.degree == expected.degree
    assert result.base == expected.base
    assert result.below == expected.below


def test_min_warp_reads_one_based_traversal(monkeypatch):
    calls = []

    def counting(code, base):
        calls.append(base)
        return warp_from(code, base)

    monkeypatch.setattr(warp, "warp_from", counting)
    gauss = dt_to_gauss(parse_dt("[12,14,16,2,4,6,8,10]"))
    assert min_warp(gauss).degree == 2
    assert calls == [Basepoint(1, forward=False)]


def _every_base(code):
    return [Basepoint(edge, forward) for edge in range(len(code.passages)) for forward in (True, False)]


def _flipped(code, below):
    return GaussCode(tuple((i, ("U" if r == "O" else "O") if i in below else r) for i, r in code.passages))


# the readers of a Gauss code's stored below-set, each with its oracle;
# ab_counts reads it through the word whose closure the code is
BELOW_READERS = {
    "ab_counts": (ab_counts, ab_counts_by_warp),
    "warp_profile forward": (lambda code: warp_profile(code, True), lambda code: warp_profile_by_basepoint(code, True)),
    "warp_profile backward": (
        lambda code: warp_profile(code, False), lambda code: warp_profile_by_basepoint(code, False),
    ),
    "warp_from": (
        lambda code: [warp_from(code, base) for base in _every_base(code)],
        lambda code: [based_warp(code, base) for base in _every_base(code)],
    ),
    "min_warp": (min_warp, min_warp_by_basepoint),
    "apply_roller_coaster": (
        lambda code: [apply_roller_coaster(code, base) for base in _every_base(code)],
        lambda code: [_flipped(code, based_warp(code, base).below) for base in _every_base(code)],
    ),
}


def _copy(record):
    return type(record)(*[getattr(record, name) for name in record.__match_args__])


# one shared code: a knot closure's stored Gauss code with its word, or a
# code with no word, expanded from a signed DT code or parsed from text
shared_codes = st.one_of(
    st.one_of(positive_knot_words(), signed_knot_words()).map(lambda word: (closure_gauss(word)[0], word)),
    signed_dt().map(lambda dt: (dt_to_gauss(dt), None)),
    abstract_gauss().map(lambda gauss: (parse_gauss(str(gauss)), None)),
)


@given(shared_codes, st.permutations(sorted(BELOW_READERS)), st.permutations(sorted(BELOW_READERS)))
@settings(max_examples=150, deadline=None)
def test_stored_below_set_changes_no_result(shared, first, second):
    # each reader, called twice in a drawn order on one shared code, gives
    # what it gives on a fresh copy and what its oracle gives
    code, word = shared
    for name in (*first, *second):
        subject = word if name == "ab_counts" else code
        if subject is None:
            continue
        reader, oracle = BELOW_READERS[name]
        assert reader(subject) == reader(_copy(subject)) == oracle(subject), name
    assert vars(code)["_below"] == based_warp(code, Basepoint(0)).below
    if word is not None:
        assert closure_gauss(word)[0] is code is vars(word)["_walk"][1]
    fresh = GaussCode(code.passages)
    assert (code, hash(code), repr(code)) == (fresh, hash(fresh), repr(fresh))
    assert "_below" not in vars(fresh)
