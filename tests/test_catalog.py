import io
import json
import re

import pytest

from rollercoaster.catalog import (
    CatalogError,
    CatalogEntry,
    ClassCounts,
    LowerBoundSource,
    PropertyClass,
    Range,
    RCCrossing,
    classify,
    load_catalog,
    main_rows,
    summarize,
    verify_entry,
)
from rollercoaster.codes import DTCode
from rollercoaster.invariants import load_jones_refs


def test_range_parse_and_format():
    assert Range.parse("2") == Range(2, 2)
    assert Range.parse("2..3") == Range(2, 3)
    assert str(Range(2, 2)) == "2"
    assert str(Range(2, 3)) == "2..3"
    with pytest.raises(CatalogError, match=r"^empty range \[3, 2\]$"):
        Range(3, 2)
    with pytest.raises(CatalogError, match=r"^negative bound in range -1\.\.-1$"):
        Range.parse("-1")


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "1..+2", "1..2_0", "\u0661..2", "", "1..2..3",
                                  "1\u2003..2", "1..\u00a02"])
def test_range_parse_reads_only_ascii_integers(text):
    with pytest.raises(CatalogError, match=f"^bad range {re.escape(repr(text))}$"):
        Range.parse(text)


def test_range_parse_keeps_its_accepted_forms():
    assert Range.parse(" 1 .. 2 ") == Range(1, 2)
    assert Range.parse("\t1\x0b..\x0c2\r\n") == Range(1, 2)
    with pytest.raises(CatalogError, match=r"^negative bound in range -1\.\.2$"):
        Range.parse("-1..2")


@pytest.mark.parametrize("text", [
    "\u0661\u0662+", "{\u0669, 12+}", "\u0669", "{9,\u200312+}", "12+\u3000",
    # near the grammar: no "+" inside the braces, a doubled or leading "+", one
    # size in braces, a blank before a "," or a "+", a missing size
    "{9, 12}", "9++", "+9", "{9}", "{ 9, 12+}", "9 +", "{9,+}", "{,12+}",
])
def test_rc_crossing_parse_reads_only_ascii_digits(text):
    with pytest.raises(CatalogError, match=f"^bad rc-crossing {re.escape(repr(text))}$"):
        RCCrossing.parse(text)


def test_knot_names_take_ascii_digits_only():
    entry = load_catalog()[0]
    fields = {name: getattr(entry, name) for name in CatalogEntry.__match_args__}
    with pytest.raises(CatalogError, match="^bad knot name '\u0663_1'$"):
        CatalogEntry(**{**fields, "name": "\u0663_1"})
    assert CatalogEntry(**{**fields, "name": "3_1"}).minimal_crossings == 3


def test_rc_crossing_parse_and_format():
    assert RCCrossing.parse("9") == RCCrossing(9, None)
    assert RCCrossing.parse("12+") == RCCrossing(None, 12)
    assert RCCrossing.parse("{9, 12+}") == RCCrossing(9, 12)
    assert RCCrossing.parse("\t{9,\x0b\x0c12+}\r\n") == RCCrossing(9, 12)
    for text in ("9", "12+", "{9, 12+}"):
        assert str(RCCrossing.parse(text)) == text
    with pytest.raises(CatalogError):
        RCCrossing.parse("maybe")


def test_load_catalog_shape():
    entries = load_catalog()
    assert len(entries) == 86
    assert len(main_rows(entries)) == 84
    names = [e.name for e in entries]
    assert names[0] == "3_1" and "12a_181" in names and "12a_477" in names
    assert all(e.ascending.lo >= e.unknotting.lo for e in entries)


def test_classify_matches_stored_property_everywhere():
    for entry in load_catalog():
        assert classify(entry) is entry.property, entry.name


def test_classify_examples():
    entries = {e.name: e for e in load_catalog()}
    assert entries["6_2"].property is PropertyClass.NEITHER
    assert entries["7_3"].property is PropertyClass.RC
    assert entries["8_10"].property is PropertyClass.UNKNOWN
    assert entries["3_1"].property is PropertyClass.SRC


def test_minimal_crossings_from_name():
    entries = {e.name: e for e in load_catalog()}
    assert entries["9_32"].minimal_crossings == 9
    assert entries["12a_181"].minimal_crossings == 12


def test_summarize_counts():
    counts = summarize(main_rows(load_catalog()))
    assert counts == ClassCounts(src=12, rc=32, neither=34, unknown=6)


def test_entry_invariants_reject_inconsistent_rows():
    with pytest.raises(CatalogError, match="SRC"):
        CatalogEntry(
            name="3_1",
            alternating=True,
            unknotting=Range(1, 1),
            ascending=Range(1, 1),
            lower_bound=LowerBoundSource.UNKNOTTING_NUMBER,
            property=PropertyClass.SRC,
            dt=DTCode((4, 6, 2)),
            rc_crossing=RCCrossing(4, None),
        )
    with pytest.raises(CatalogError, match="ascending"):
        CatalogEntry(
            name="3_1",
            alternating=True,
            unknotting=Range(2, 2),
            ascending=Range(1, 1),
            lower_bound=LowerBoundSource.UNKNOTTING_NUMBER,
            property=PropertyClass.UNKNOWN,
            dt=DTCode((4, 6, 2)),
            rc_crossing=RCCrossing(3, None),
        )


@pytest.mark.parametrize("unknotting, ascending, stored, rc, columns", [
    (Range(1, 1), Range(1, 1), PropertyClass.SRC, RCCrossing(4, None), PropertyClass.RC),
    (Range(1, 1), Range(1, 1), PropertyClass.RC, RCCrossing(3, None), PropertyClass.SRC),
    (Range(1, 2), Range(1, 2), PropertyClass.NEITHER, RCCrossing(3, None), PropertyClass.UNKNOWN),
    (Range(1, 1), Range(2, 2), PropertyClass.UNKNOWN, RCCrossing(None, 12), PropertyClass.NEITHER),
])
def test_a_built_entry_is_held_to_classify(unknotting, ascending, stored, rc, columns):
    message = f"stored property {stored.value} but columns give {columns.value}"
    with pytest.raises(CatalogError, match=f"^{message}$"):
        CatalogEntry(
            name="3_1",
            alternating=True,
            unknotting=unknotting,
            ascending=ascending,
            lower_bound=LowerBoundSource.UNKNOTTING_NUMBER,
            property=stored,
            dt=DTCode((4, 6, 2)),
            rc_crossing=rc,
        )


def test_load_rejects_edited_ascending(tmp_path):
    lines = _read_catalog_lines()
    lines[1] = lines[1].replace("3_1,Y,1,1", "3_1,Y,1,2")
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(CatalogError, match="row 2"):
        load_catalog(bad)


@pytest.mark.parametrize("fields, message", [
    ("3_1,Y,-1,1", r"^row 2: negative bound in range -1\.\.-1$"),
    ("3_1,Y,1,3..1", r"^row 2: empty range \[3, 1\]$"),
    ("3_1,Y,1_0,1", r"^row 2: bad range '1_0'$"),
    ("3_1,Y,1,+1", r"^row 2: bad range '\+1'$"),
])
def test_load_names_the_fault_in_a_bad_range(tmp_path, fields, message):
    lines = _read_catalog_lines()
    lines[1] = lines[1].replace("3_1,Y,1,1", fields)
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(CatalogError, match=message):
        load_catalog(bad)


@pytest.mark.parametrize("edit", [lambda row: row.rsplit(",", 1)[0], lambda row: row + ",extra"])
def test_load_rejects_row_whose_field_count_differs_from_header(tmp_path, edit):
    lines = _read_catalog_lines()
    lines[1] = edit(lines[1])
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(CatalogError, match="^row 2: expected 8 fields"):
        load_catalog(bad)


def test_load_names_the_row_of_a_field_over_the_csv_size_limit(tmp_path):
    # the csv module raises its own error while reading such a row
    lines = _read_catalog_lines()
    lines[1] = lines[1].replace('"[4, 6, 2]"', '"[4, 6, 2' + ", 8" * 50_000 + ']"')
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(CatalogError, match=r"^row 2: field larger than field limit \(131072\)$"):
        load_catalog(bad)


def test_load_names_a_header_field_over_the_csv_size_limit(tmp_path):
    bad = tmp_path / "catalog.csv"
    bad.write_text("name" * 40_000 + "\n")
    with pytest.raises(CatalogError, match=r"^header: field larger than field limit \(131072\)$"):
        load_catalog(bad)


def test_load_rejects_a_repeated_knot_name(tmp_path):
    # two rows for one knot would count it twice in the census
    lines = _read_catalog_lines()
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join([*lines[:3], lines[1]]))
    with pytest.raises(CatalogError, match="^row 4: duplicate knot name 3_1$"):
        load_catalog(bad)
    names = [entry.name for entry in load_catalog()]
    assert len(set(names)) == len(names) == 86


def test_load_header_only_gives_no_entries(tmp_path):
    only = tmp_path / "catalog.csv"
    only.write_text(_read_catalog_lines()[0] + "\n")
    assert load_catalog(only) == ()


@pytest.mark.parametrize("header", [
    "name,alternating",
    "rc_crossing,dt,property,lower_bound,ascending,unknotting,alternating,name,name",
])
def test_load_rejects_a_header_without_exactly_the_eight_columns(tmp_path, header):
    bad = tmp_path / "catalog.csv"
    bad.write_text(header + "\n")
    with pytest.raises(CatalogError, match="^header: expected name,alternating,"):
        load_catalog(bad)


def test_load_accepts_the_columns_in_any_order(tmp_path):
    lines = [row.split(",", 1) for row in _read_catalog_lines()[:2]]
    swapped = tmp_path / "catalog.csv"
    swapped.write_text("\n".join(f"{rest},{first}" for first, rest in lines))
    assert load_catalog(swapped) == load_catalog()[:1]


def test_load_names_the_physical_line_after_a_blank_line(tmp_path):
    lines = _read_catalog_lines()
    lines[2] = lines[2].replace("4_1,Y,1,1", "4_1,Y,1,2")
    lines.insert(2, "")
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    with pytest.raises(CatalogError, match="^row 4: stored property"):
        load_catalog(bad)


def test_load_catalog_breaks_lines_at_newlines_only(tmp_path, monkeypatch):
    header, first, second = _read_catalog_lines()[:3]
    path = tmp_path / "catalog.csv"
    for ch in ("\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        bad = second.replace("[4, 6, 8, 2]", f"[4, 6,{ch} 8, 2]")
        for end in ("\n", "\r\n", "\r"):
            path.write_text(end.join([header, first, second, ""]), encoding="utf-8", newline="")
            assert [e.name for e in load_catalog(path)] == ["3_1", "4_1"]
            # stdin is not translated to "\n" as a file opened in text mode is
            monkeypatch.setattr("sys.stdin", io.StringIO(end.join([header, first, second, ""])))
            assert [e.name for e in load_catalog("-")] == ["3_1", "4_1"]
            path.write_text(end.join([header, first, bad, second, ""]), encoding="utf-8", newline="")
            with pytest.raises(CatalogError, match=f"^row 3: malformed DT token {re.escape(repr(ch))}$"):
                load_catalog(path)


def _read_catalog_lines():
    from importlib import resources

    return resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()


def test_verify_entry_report_schema():
    entries = load_catalog()
    refs = load_jones_refs()
    report = verify_entry(entries[0], row=1, refs=refs)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "row", "name", "computed_min_warp", "expected", "witness_crossings",
        "rc_crossing", "identification", "checks",
    ]
    assert payload["name"] == "3_1"
    assert payload["computed_min_warp"] == 1
    assert payload["checks"][0] == {"name": "min_warp", "pass": True}
    assert report.passed


def test_verify_entry_examples():
    entries = {e.name: e for e in load_catalog()}
    refs = load_jones_refs()
    r932 = verify_entry(entries["9_32"], refs=refs)
    assert r932.computed_min_warp == 2 and r932.witness_crossings == 11 and r932.passed
    r940 = verify_entry(entries["9_40"], refs=refs)
    assert r940.computed_min_warp == 3 and r940.witness_crossings == 11 and r940.passed
    r52 = verify_entry(entries["5_2"], refs=refs)
    assert r52.computed_min_warp == 1 and r52.rc_crossing == "6" and r52.passed


def test_verify_entry_identifies_unique_none_and_ambiguous():
    trefoil = next(e for e in load_catalog() if e.name == "3_1")
    refs = load_jones_refs()
    without = {name: poly for name, poly in refs.items() if name != "3_1"}
    doubled = {**refs, "fake": refs["3_1"]}
    reports = [verify_entry(trefoil, refs=table) for table in (refs, without, doubled)]
    assert [r.identification for r in reports] == ["3_1", "none", "ambiguous: 3_1, fake"]
    assert [dict(r.checks)["identification"] for r in reports] == [True, False, False]
    assert [r.passed for r in reports] == [True, False, False]


def test_verify_entry_flags_wrong_expectation():
    entries = {e.name: e for e in load_catalog()}
    refs = load_jones_refs()
    good = entries["3_1"]
    bad = CatalogEntry(
        name=good.name,
        alternating=good.alternating,
        unknotting=Range(2, 2),
        ascending=Range(2, 2),
        lower_bound=good.lower_bound,
        property=PropertyClass.RC,
        dt=good.dt,
        rc_crossing=RCCrossing(6, None),
    )
    report = verify_entry(bad, refs=refs)
    assert not report.passed
    failed = {name for name, ok in report.checks if not ok}
    assert failed == {"min_warp", "witness_size"}
