import itertools
import math

import pytest

from rollercoaster import DTCode, dt_to_gauss, is_reduced, min_warp
from rollercoaster import embed, search
from rollercoaster.search import ConjectureRow, a_min_warp, conjecture_report, enumerate_alternating

from oracles import enumerate_by_permutations, exhaustive_realizable, least_over_every_reading, symmetry_orbits


def test_c3_is_exactly_the_trefoil():
    assert [c.entries for c in enumerate_alternating(3)] == [(4, 6, 2)]


def test_c4_includes_figure_eight():
    codes = [c.entries for c in enumerate_alternating(4)]
    assert (4, 6, 8, 2) in codes


@pytest.mark.parametrize("c", range(3, 8))
def test_enumerated_codes_equal_their_checked_rebuild(c):
    for code in enumerate_alternating(c):
        assert DTCode(code.entries) == code


def test_class_counts_pinned():
    assert [len(list(enumerate_alternating(c))) for c in range(3, 10)] == [1, 1, 2, 4, 12, 34, 131]


@pytest.mark.parametrize("c", range(3, 9))
def test_prefix_walk_matches_permutation_walk(c):
    assert [code.entries for code in enumerate_alternating(c)] == [
        code.entries for code in enumerate_by_permutations(c)
    ]


def test_walk_reaches_far_fewer_leaves_than_permutations(monkeypatch):
    # the least-reading test runs on every leaf, the interlacement only
    # on the leaves it keeps
    stages = {}
    least_reading, interlacement, orientation_bits = (
        search._least_reading, search._interlacement, search._orientation_bits
    )

    def counting_least(partner):
        stages["leaves"] += 1
        passed = least_reading(partner)
        stages["least"] += passed
        return passed

    def counting_masks(partner):
        stages["masks"] += 1
        return interlacement(partner)

    def counting_bits(partner, masks):
        stages["reduced"] += 1
        bits = orientation_bits(partner, masks)
        stages["planar"] += bits is not None
        return bits

    monkeypatch.setattr(search, "_least_reading", counting_least)
    monkeypatch.setattr(search, "_interlacement", counting_masks)
    monkeypatch.setattr(search, "_orientation_bits", counting_bits)
    # leaves, least readings, reduced, planar, classes
    for c, counts in ((8, (852, 198, 195, 34, 34)), (10, (60138, 11612, 11531, 489, 489))):
        stages.update(dict.fromkeys(["leaves", "least", "masks", "reduced", "planar"], 0))
        classes = len(list(enumerate_alternating(c)))
        assert (stages["leaves"], stages["least"], stages["reduced"], stages["planar"], classes) == counts
        assert stages["masks"] == stages["least"]
        assert stages["leaves"] < math.factorial(c) // 10


def test_least_reading_equals_the_all_readings_oracle_on_every_leaf(monkeypatch):
    leaves = []
    least_reading = search._least_reading

    def recording(partner):
        passed = least_reading(partner)
        leaves.append((tuple(partner), passed))
        return passed

    monkeypatch.setattr(search, "_least_reading", recording)
    for c in range(3, 9):
        list(enumerate_alternating(c))
    assert len(leaves) == 1005
    assert [passed for _, passed in leaves] == [least_over_every_reading(p) for p, _ in leaves]
    # at odd c, e_0 = c + 1 makes chord 0 of length c: it ties the code both ways
    for c in (5, 7):
        assert any(len(p) == 2 * c and p[0] == c for p, _ in leaves)


def test_cut_1_tries_only_unkinked_first_chords_no_longer_than_c():
    for c in range(3, 11):
        n = 2 * c
        # label 2 makes chord 0 a kink; e - 1 > n - (e - 1) makes it shorter the other way round
        assert list(search._first_entries(c)) == [e for e in range(4, n + 1, 2) if e - 1 <= n - (e - 1)]


def test_every_emitted_code_is_reduced_and_realizable():
    for c in (3, 4, 5):
        for code in enumerate_alternating(c):
            assert is_reduced(dt_to_gauss(code))
            assert exhaustive_realizable(code)
            assert all(e > 0 for e in code.entries)


def test_crossing_range_enforced():
    with pytest.raises(ValueError):
        list(enumerate_alternating(2))
    with pytest.raises(ValueError, match="^crossing number 11 outside supported range 3..10$"):
        list(enumerate_alternating(search.MAX_CROSSINGS + 1))


def test_conjecture_report_rejects_c_max_before_any_row(monkeypatch):
    calls = []
    monkeypatch.setattr(search, "a_min_warp", lambda c: calls.append(c))
    with pytest.raises(ValueError, match="outside supported range"):
        conjecture_report(search.MAX_CROSSINGS + 1)
    assert calls == []


def test_enumeration_complete_against_brute_force_orbits():
    for c in (3, 4, 5, 6):
        survivors = []
        for perm in itertools.permutations(range(2, 2 * c + 1, 2)):
            code = DTCode(perm)
            if is_reduced(dt_to_gauss(code)) and exhaustive_realizable(code):
                survivors.append(code)
        orbits = symmetry_orbits(survivors)
        emitted = list(enumerate_alternating(c))
        assert len(emitted) == len(orbits)
        # one representative per orbit, and it is the least member
        for code in emitted:
            orbit = next(o for o in orbits if code.entries in o)
            assert code.entries == min(orbit)


def test_dedup_no_two_emitted_codes_share_an_orbit():
    emitted = list(enumerate_alternating(6))
    orbits = symmetry_orbits(emitted)
    assert len(orbits) == len(emitted)


def test_a_min_warp_values():
    assert a_min_warp(3)[0] == 1
    assert a_min_warp(4)[0] == 1
    assert a_min_warp(5)[0] == 2
    value, witness = a_min_warp(6)
    assert value == 2
    assert min_warp(dt_to_gauss(witness)).degree == 2


def test_a_min_warp_trivial_upper_bound():
    for c in (3, 4, 5, 6):
        assert a_min_warp(c)[0] <= c / 2


def test_conjecture_report_rows():
    rows = conjecture_report(6)
    assert len(rows) == 4
    assert all(isinstance(r, ConjectureRow) and r.matches for r in rows)
    assert [r.predicted for r in rows] == [1, 1, 2, 2]
    single = conjecture_report(3)
    assert len(single) == 1 and single[0].crossings == 3


def test_enumeration_yields_before_testing_every_candidate(monkeypatch):
    calls = []
    least_reading = search._least_reading

    def counting(partner):
        calls.append(partner)
        return least_reading(partner)

    monkeypatch.setattr(search, "_least_reading", counting)
    stream = enumerate_alternating(6)
    first = next(stream)
    tested_at_first = len(calls)
    rest = list(stream)
    assert tested_at_first < len(calls)
    assert [first.entries] + [c.entries for c in rest] == sorted(c.entries for c in [first] + rest)


def test_enumeration_builds_a_code_only_for_each_class(monkeypatch):
    built, checked = [], []
    unchecked, post_init = search._unchecked, DTCode.__post_init__

    def counting(cls, **fields):
        built.append(cls)
        return unchecked(cls, **fields)

    def counting_post_init(self):
        checked.append(self)
        post_init(self)

    monkeypatch.setattr(search, "_unchecked", counting)
    monkeypatch.setattr(DTCode, "__post_init__", counting_post_init)
    classes = list(enumerate_alternating(8))
    # one code per class, built without re-checking: its chords pair
    # every even position with an odd one
    assert built == [DTCode] * len(classes) and len(classes) == 34
    assert checked == []


def test_enumeration_decides_planarity_without_realizing(monkeypatch):
    def refuse(code):
        raise AssertionError(f"enumeration realized {code}")

    monkeypatch.setattr(embed, "realize", refuse)
    assert len(list(enumerate_alternating(8))) == 34
