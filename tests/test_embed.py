import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from rollercoaster import (
    BraidWord,
    Crossing,
    DTCode,
    GaussCode,
    NotRealizable,
    PlanarDiagram,
    closure_components,
    closure_gauss,
    dt_to_gauss,
    extract_dt,
    extract_gauss,
    gauss_to_dt,
    is_realizable,
    jones,
    parse_braid,
    parse_dt,
    pd_from_braid,
    random_positive_braid_knot,
    realize,
    writhe,
)

from rollercoaster import embed, search
from rollercoaster.catalog import load_catalog
from rollercoaster.codes import _dt_chords, _interlacement

from oracles import (
    canonical_dt, exhaustive_realizable, orientation_bits_by_pairs, rotate, search_realize, trace_faces,
)

TREFOIL = DTCode((4, 6, 2))


def test_crossing_validation():
    Crossing(edges=(0, 1, 2, 3), over=(0, 2), sign=1)
    with pytest.raises(ValueError):
        Crossing(edges=(0, 1, 2, 3), over=(0, 1), sign=1)
    with pytest.raises(ValueError):
        Crossing(edges=(0, 1, 2, 3), over=(0, 2), sign=2)


@pytest.mark.parametrize("edges", [(0, 1, 0), (0, 1, 2, 3, 0)])
def test_crossing_refuses_an_edges_tuple_not_of_four_ids(edges):
    # a bracket over three ids would index past the tuple
    with pytest.raises(ValueError, match=f"^a crossing has four edge ids, got {len(edges)}$"):
        Crossing(edges, (0, 2), 1)


def test_planar_diagram_validates_edge_degrees():
    with pytest.raises(ValueError):
        PlanarDiagram((Crossing(edges=(0, 1, 2, 0), over=(0, 2), sign=1),))


def test_realize_trefoil_round_trip():
    diagram = realize(TREFOIL)
    assert diagram.size == 3
    assert abs(writhe(diagram)) == 3
    assert extract_dt(diagram) == TREFOIL


def test_realize_normalizes_first_crossing_positive():
    # the planar structure cannot see kink chirality, so both one-crossing
    # codes land on the same embedded kink
    for entries in ((2,), (-2,)):
        diagram = realize(DTCode(entries))
        assert writhe(diagram) == 1


def test_realize_is_chirality_blind():
    # a DT code leaves chirality open: the all-negative trefoil code also
    # reads off the positive trefoil from a shifted basepoint, and realize
    # settles the ambiguity by making crossing 1 positive
    from rollercoaster import dt_to_gauss, gauss_to_dt, jones

    shifted = gauss_to_dt(rotate(dt_to_gauss(TREFOIL), 1))
    assert shifted == DTCode((-4, -6, -2))
    assert writhe(realize(DTCode((-4, -6, -2)))) == writhe(realize(TREFOIL)) == 3
    assert jones(realize(DTCode((-4, -6, -2)))) == jones(realize(TREFOIL))


def test_realize_figure_eight_writhe_zero():
    assert writhe(realize(DTCode((4, 6, 8, 2)))) == 0


def test_realize_rejects_nonplanar_code():
    # in the second code every non-interlaced pair shares an even number
    # of crossings; only the orientation colouring runs into a contradiction
    for entries in ((4, 6, 8, 10, 2), (10, 2, 12, 8, 14, 16, 4, 6)):
        bad = DTCode(entries)
        assert not is_realizable(bad)
        assert not exhaustive_realizable(bad)
        with pytest.raises(NotRealizable):
            realize(bad)


def test_realize_empty_code():
    assert realize(DTCode(())).size == 0
    assert extract_gauss(PlanarDiagram(())) == GaussCode(())


def test_extract_gauss_refuses_a_diagram_not_labelled_from_zero():
    shifted = PlanarDiagram(tuple(
        Crossing(tuple(e + 1 for e in x.edges), x.over, x.sign) for x in realize(TREFOIL).crossings
    ))
    with pytest.raises(ValueError, match=r"^no traversal start: diagram edges are not labelled 0\.\.2c-1$"):
        extract_gauss(shifted)


def test_extract_gauss_starts_at_label_one():
    gauss = extract_gauss(realize(TREFOIL))
    assert gauss == dt_to_gauss(TREFOIL)


def test_catalog_witness_round_trips():
    for text in ("[-8, 10, 2, -12, 6, 4]", "[12, -14, 16, -2, 4, -6, 8, -10]",
                 "[14, -16, 20, 18, -2, 4, 6, 10, 8, 12]"):
        code = parse_dt(text)
        assert extract_dt(realize(code)) == code


def test_realizability_matches_exhaustive_oracle_small():
    # every 4-entry pairing, both parities of sign pattern on a sample
    evens = (2, 4, 6, 8)
    agree = 0
    for perm in itertools.permutations(evens):
        for signs in ((1, 1, 1, 1), (-1, 1, 1, 1), (1, -1, 1, -1)):
            code = DTCode(tuple(s * e for s, e in zip(signs, perm)))
            assert is_realizable(code) == exhaustive_realizable(code)
            agree += 1
    assert agree == 72


@st.composite
def signed_dt(draw):
    c = draw(st.integers(min_value=1, max_value=9))
    perm = draw(st.permutations(range(2, 2 * c + 1, 2)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=c, max_size=c))
    return DTCode(tuple(s * e for s, e in zip(signs, perm)))


def realize_or_none(realizer, code):
    try:
        return realizer(code)
    except NotRealizable:
        return None


@given(signed_dt())
@settings(max_examples=200, deadline=None)
def test_realize_matches_search_oracle(code):
    assert realize_or_none(realize, code) == realize_or_none(search_realize, code)


@given(signed_dt())
@settings(deadline=None)
def test_realizability_matches_exhaustive_oracle(code):
    assert is_realizable(code) == exhaustive_realizable(code)


def test_realize_matches_search_oracle_on_every_catalog_witness():
    for entry in load_catalog():
        assert realize(entry.dt) == search_realize(entry.dt), entry.name


def assert_edges_follow_the_code(code, diagram):
    # passage t enters on edge t, so crossing i holds its odd passage's
    # edges 2i and 2i+1 opposite each other, the first at slot 0
    for i, (entry, x) in enumerate(zip(code.entries, diagram.crossings)):
        assert (x.edges[0], x.edges[2]) == (2 * i, 2 * i + 1), (code, i)
        assert (x.over == (0, 2)) == (entry > 0), (code, i)
    assert diagram.crossings[0].sign == 1, code


def test_realize_numbers_edges_as_basepoints_on_every_catalog_witness():
    for entry in load_catalog():
        assert_edges_follow_the_code(entry.dt, realize(entry.dt))


@given(signed_dt())
@settings(max_examples=200, deadline=None)
def test_realize_numbers_edges_as_basepoints(code):
    diagram = realize_or_none(realize, code)
    assume(diagram is not None)
    assert_edges_follow_the_code(code, diagram)


def test_realize_counts_faces_once(monkeypatch):
    """One face count and one dart table per diagram: the traversal and
    the bracket's placement order read the table the face count built."""
    faces, twins = embed._faces, embed._twins
    counted, tabled = [], []
    monkeypatch.setattr(embed, "_faces", lambda twin: counted.append(twin) or faces(twin))
    monkeypatch.setattr(embed, "_twins", lambda rotations: tabled.append(rotations) or twins(rotations))
    diagram = realize(parse_dt("[14, -16, 20, 18, -2, 4, 6, 10, 8, 12]"))
    assert (len(counted), len(tabled)) == (1, 1)
    jones(diagram)
    extract_gauss(diagram)
    assert (len(counted), len(tabled)) == (1, 1)


@st.composite
def rotation_systems(draw):
    """Any 4-valent map: each edge id on two of the 4c slots, kinks and
    non-planar systems included."""
    c = draw(st.integers(min_value=1, max_value=12))
    slots = draw(st.permutations([e for e in range(2 * c) for _ in range(2)]))
    return [tuple(slots[4 * ci:4 * ci + 4]) for ci in range(c)]


@given(rotation_systems())
@settings(max_examples=300, deadline=None)
def test_count_faces_matches_the_face_tracing_oracle(rotations):
    assert embed.count_faces(rotations) == trace_faces(rotations)


def test_count_faces_matches_the_face_tracing_oracle_on_every_catalog_witness():
    for entry in load_catalog():
        rotations = [x.edges for x in realize(entry.dt).crossings]
        assert embed.count_faces(rotations) == trace_faces(rotations) == len(rotations) + 2


def test_realize_rejects_twenty_crossing_chain():
    # [4, 6, ..., 40, 2]: the orientation search would try 2^19 choices
    with pytest.raises(NotRealizable):
        realize(DTCode(tuple(range(4, 41, 2)) + (2,)))


def test_pd_from_braid_trefoil():
    diagram = pd_from_braid(parse_braid("1 1 1"))
    assert writhe(diagram) == 3
    assert extract_dt(diagram) == TREFOIL


def test_pd_from_braid_writhe_is_signed_letter_sum():
    for text in ("1 2 1 2", "1 2 1 2 1 2 1 2", "1 1 1 1 1"):
        word = parse_braid(text)
        assert writhe(pd_from_braid(word)) == sum(s for _, s in word.letters)


def test_pd_from_braid_matches_closure_gauss_code():
    word = parse_braid("1 2 1 2")
    assert extract_gauss(pd_from_braid(word)) == closure_gauss(word)[0]
    assert canonical_dt(extract_dt(pd_from_braid(word))) == canonical_dt(
        extract_dt(realize(extract_dt(pd_from_braid(word))))
    )


@st.composite
def positive_knot_braids(draw):
    n = draw(st.integers(min_value=2, max_value=4))
    extra = draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=6))
    letters = draw(st.permutations(list(range(1, n)) + extra))
    word = BraidWord(n, tuple((i, 1) for i in letters))
    assume(closure_components(word) == 1)
    return word


@given(positive_knot_braids())
@settings(max_examples=80, deadline=None)
def test_braid_closures_realize_and_round_trip(word):
    code = extract_dt(pd_from_braid(word))
    assert is_realizable(code)
    assert extract_dt(realize(code)) == code


@st.composite
def signed_knot_braids(draw):
    # signs leave the closure permutation alone, so a seeded positive knot
    # word with drawn signs still closes to a knot
    word = random_positive_braid_knot(5, 12, draw(st.integers(min_value=0, max_value=10**6)))
    c = len(word.letters)
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=c, max_size=c))
    return BraidWord(word.strands, tuple((i, s) for (i, _), s in zip(word.letters, signs)))


@given(signed_knot_braids())
@settings(deadline=None)
def test_pd_from_braid_traces_the_closure_gauss_code(word):
    # the rotations follow realize's rule and the walk reads the shared
    # twin map, so both must land on the braid's own traversal exactly
    assert extract_gauss(pd_from_braid(word)) == closure_gauss(word)[0]


@given(signed_dt(), signed_knot_braids())
@settings(deadline=None)
def test_built_crossings_equal_their_checked_rebuild(code, word):
    # realize and pd_from_braid build their crossings and diagrams unchecked
    diagrams = [pd_from_braid(word)] + ([realize(code)] if is_realizable(code) else [])
    for x in (x for diagram in diagrams for x in diagram.crossings):
        assert Crossing(x.edges, x.over, x.sign) == x
    for diagram in diagrams:
        assert PlanarDiagram(diagram.crossings) == diagram


def seeded_signed_word(seed):
    rng = random.Random(seed)
    word = random_positive_braid_knot(6, 20, seed)
    return BraidWord(word.strands, tuple((i, rng.choice((1, -1))) for i, _ in word.letters))


def test_closure_gauss_roles_match_the_planar_diagram_on_seeded_signed_words():
    # pd_from_braid takes each crossing's over-strand from its letter sign,
    # so this checks closure_gauss's over/under rule on fixed inputs
    for seed in range(800):
        word = seeded_signed_word(seed)
        assert closure_gauss(word)[0] == extract_gauss(pd_from_braid(word)), seed


def test_pd_from_braid_numbers_edges_as_basepoints_on_seeded_signed_words():
    # passage t of the closure's Gauss code enters on edge t and leaves
    # on edge t+1, as codes.Basepoint numbers the edges
    for seed in range(500):
        diagram = pd_from_braid(seeded_signed_word(seed))
        n = 2 * diagram.size
        for t, (ident, _) in enumerate(extract_gauss(diagram).passages):
            edges = diagram.crossings[ident - 1].edges
            assert any(edges[s] == t and edges[(s + 2) % 4] == (t + 1) % n for s in range(4)), (seed, t)


def test_a_disconnected_closure_code_realizes_as_the_mirror_trefoil():
    # realize orients each interlacement component on its own, so this
    # closure code does not name the closure's knot (README, closure-dt)
    word = parse_braid("2 4 3 1 2 2")
    code = gauss_to_dt(closure_gauss(word)[0])
    assert code.entries == (12, -10, 8, -6, -2, -4)
    closure = jones(pd_from_braid(word))
    assert str(closure) == "t + t^3 - t^4"
    assert jones(realize(code)) == closure.mirror() != closure


def engine_bits(entries):
    partner = _dt_chords(entries)[0]
    return embed._orientation_bits(partner, _interlacement(partner))


def test_orientation_bits_match_the_pair_oracle_on_every_permutation_code_to_seven():
    codes = [tuple(perm) for c in range(1, 8) for perm in itertools.permutations(range(2, 2 * c + 1, 2))]
    assert len(codes) == 5913
    planar = 0
    for entries in codes:
        bits = engine_bits(entries)
        assert bits == orientation_bits_by_pairs(entries), entries
        planar += bits is not None
    assert 0 < planar < len(codes)


def test_orientation_bits_match_the_pair_oracle_on_every_leaf_of_the_walk_to_ten(monkeypatch):
    # the walk's leaf colouring sees every class it yields and the
    # non-planar codes it drops
    leaves = []
    orientation_bits = search._orientation_bits

    def recording(partner, masks):
        bits = orientation_bits(partner, masks)
        leaves.append((tuple(q + 1 for q in partner[::2]), bits))
        return bits

    monkeypatch.setattr(search, "_orientation_bits", recording)
    classes = {code.entries for c in range(3, 11) for code in search.enumerate_alternating(c)}
    assert classes == {entries for entries, bits in leaves if bits is not None}
    assert len(leaves) > len(classes)
    for entries, bits in leaves:
        assert bits == orientation_bits_by_pairs(entries), entries


def test_orientation_bits_match_the_pair_oracle_on_every_catalog_witness():
    for entry in load_catalog():
        bits = engine_bits(entry.dt.entries)
        assert bits is not None and bits == orientation_bits_by_pairs(entry.dt.entries), entry.name


def test_orientation_bits_match_the_pair_oracle_on_dense_torus_closures():
    # every crossing of T(2,n) interlaces every other
    for n in range(1, 202, 2):
        entries = gauss_to_dt(closure_gauss(parse_braid(f"s1^{n}"))[0]).entries
        bits = engine_bits(entries)
        assert bits is not None and bits == orientation_bits_by_pairs(entries), n


@st.composite
def mid_size_dt(draw):
    # a drawn pairing is rarely planar, so half the draws are the closure
    # codes of seeded positive knot words
    if draw(st.booleans()):
        c = draw(st.integers(min_value=8, max_value=24))
        return tuple(draw(st.permutations(range(2, 2 * c + 1, 2))))
    word = random_positive_braid_knot(6, 24, draw(st.integers(min_value=0, max_value=10**6)))
    assume(len(word.letters) >= 8)
    return gauss_to_dt(closure_gauss(word)[0]).entries


@given(mid_size_dt())
@settings(max_examples=200, deadline=None)
def test_orientation_bits_match_the_pair_oracle_on_drawn_codes(entries):
    assert engine_bits(entries) == orientation_bits_by_pairs(entries)
