from hypothesis import given

from rollercoaster import (
    Basepoint,
    DTCode,
    GaussCode,
    apply_roller_coaster,
    dt_to_gauss,
    min_warp,
    mirror,
    parse_dt,
    parse_gauss,
    warp_from,
    warp_profile,
)

from rollercoaster import warp
from oracles import min_warp_by_basepoint, warp_profile_by_basepoint
from test_codes import abstract_gauss

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
