"""The records keep the value semantics of the frozen dataclasses they
replace: each is held against its ``oracles.dataclass_twin`` on repr,
equality, hash, field order, defaults and the errors of assignment,
deletion and a wrong field list, and a record built with ``_unchecked``
equals the one the checked constructor builds."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oracles import dataclass_twin
from rollercoaster import Basepoint, BraidWord, Crossing, DTCode, GaussCode, PlanarDiagram, WarpResult, ab_counts
from rollercoaster.catalog import CatalogEntry, ClassCounts, RCCrossing, Range, RowReport, load_catalog
from rollercoaster.codes import _unchecked
from rollercoaster.search import ConjectureRow

small = st.integers(0, 12)
dt_codes = st.integers(1, 6).flatmap(lambda c: st.tuples(
    st.permutations(range(2, 2 * c + 1, 2)), st.lists(st.sampled_from((1, -1)), min_size=c, max_size=c),
).map(lambda pair: DTCode(tuple(e * s for e, s in zip(*pair)))))
basepoints = st.builds(Basepoint, small, st.booleans())


def _gauss_passages(ids):
    return st.permutations([(i, role) for i in ids for role in "OU"])


def _diagram_crossings(edges):
    # each edge id twice, cut into crossings of four
    return st.permutations(edges + edges).map(lambda ids: tuple(
        Crossing(tuple(ids[k:k + 4]), (0, 2), 1) for k in range(0, len(ids), 4)
    ))


def _braid_fields(n):
    return st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1))), max_size=8,
    ).map(tuple) if n > 1 else st.just(()))


# one strategy of valid field tuples per record, in field order
FIELD_VALUES = {
    DTCode: dt_codes.map(lambda code: (code.entries,)),
    GaussCode: st.lists(st.integers(1, 9), unique=True, max_size=5).flatmap(_gauss_passages).map(
        lambda passages: (tuple(passages),)
    ),
    Basepoint: st.tuples(small, st.booleans()),
    BraidWord: st.integers(1, 5).flatmap(_braid_fields),
    Crossing: st.tuples(
        st.tuples(small, small, small, small), st.sampled_from(((0, 2), (2, 0), (1, 3), (3, 1))),
        st.sampled_from((1, -1)),
    ),
    PlanarDiagram: st.sampled_from([[], [0, 1], [0, 1, 2, 3], [5, 6, 7, 8, 9, 10]]).flatmap(
        _diagram_crossings
    ).map(lambda crossings: (crossings,)),
    WarpResult: st.tuples(basepoints, st.frozensets(small)),
    Range: st.tuples(small, small).map(sorted).map(tuple),
    RCCrossing: st.tuples(st.none() | small, small) | st.tuples(small, st.none()),
    CatalogEntry: st.sampled_from(load_catalog()).map(
        lambda entry: tuple(getattr(entry, name) for name in CatalogEntry.__match_args__)
    ),
    ClassCounts: st.tuples(small, small, small, small),
    RowReport: st.tuples(
        small, st.text(max_size=5), small, small, small, st.text(max_size=5), st.text(max_size=5),
        st.lists(st.tuples(st.text(max_size=5), st.booleans()), max_size=3).map(tuple),
    ),
    ConjectureRow: st.tuples(small, small, small, dt_codes),
}


@settings(max_examples=60, deadline=None)
@pytest.mark.parametrize("cls", FIELD_VALUES, ids=lambda cls: cls.__name__)
@given(data=st.data())
def test_record_agrees_with_its_dataclass_twin(cls, data):
    twin = dataclass_twin(cls)
    values, other = data.draw(FIELD_VALUES[cls]), data.draw(FIELD_VALUES[cls])
    record, copy = cls(*values), twin(*values)
    assert cls.__match_args__ == tuple(field.name for field in dataclasses.fields(twin))
    assert repr(record) == repr(copy)
    assert hash(record) == hash(copy)
    assert record == cls(*values) and record != copy and record != values
    assert (record == cls(*other)) == (copy == twin(*other))
    # fields by name, in any order, and the defaults when left out
    assert cls(**dict(reversed([*zip(cls.__match_args__, values)]))) == record
    required = [field for field in dataclasses.fields(twin) if field.default is dataclasses.MISSING]
    assert repr(cls(*values[:len(required)])) == repr(twin(*values[:len(required)]))
    # frozen: assignment and deletion, of a field or any other name
    for value in (record, copy):
        for name in (*cls.__match_args__, "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    # a missing, surplus or unknown field
    for build in (cls, twin):
        for args, kwargs in (((), {}), ((*values, None), {}), (values, {"other": None}),
                             (values, {cls.__match_args__[0]: values[0]})):
            with pytest.raises(TypeError):
                build(*args, **kwargs)
    # the package's own construction gives the same value
    unchecked = _unchecked(cls, **dict(zip(cls.__match_args__, values)))
    assert (unchecked == record, hash(unchecked), repr(unchecked)) == (True, hash(record), repr(record))


def test_stored_closure_facts_stay_out_of_equality_hash_and_repr():
    word, fresh = BraidWord(3, ((1, 1), (2, 1), (1, 1), (2, 1))), BraidWord(3, ((1, 1), (2, 1), (1, 1), (2, 1)))
    before = repr(word)
    ab_counts(word)
    assert "_walk" in vars(word)
    assert (word == fresh, hash(word), repr(word)) == (True, hash(fresh), before)
    # the closure's Gauss code keeps its below-set out of them too
    code = vars(word)["_walk"]
    assert "_below" in vars(code)
    assert (code == GaussCode(code.passages), hash(code), repr(code)) == (
        True, hash(GaussCode(code.passages)), repr(GaussCode(code.passages)),
    )
