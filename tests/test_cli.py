import importlib.util
import io
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rollercoaster import DTCode, ab_counts, cli, closure_gauss, gauss_to_dt, parse_braid, reduce_to_base
from rollercoaster.braid import MAX_BRAID_LETTERS
from rollercoaster.cli import main

from oracles import dt_by_partner_array


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv, **kwargs):
    """``python -m rollercoaster *argv`` in a child interpreter that
    imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "rollercoaster", *argv], capture_output=True, text=True, env=env, timeout=60, **kwargs
    )


def test_warp_dt(capsys):
    code, out, _ = run(capsys, "warp", "--dt", "[4,6,2]")
    assert code == 0
    assert out.splitlines()[0] == "min_warp: 1"
    assert out.splitlines()[1] == "basepoint: edge 0 forward"


def test_warp_eight_eighteen(capsys):
    code, out, _ = run(capsys, "warp", "--dt", "[12,14,16,2,4,6,8,10]")
    assert code == 0
    assert out.splitlines()[0] == "min_warp: 2"


def test_warp_rejects_odd_entry(capsys):
    code, _, err = run(capsys, "warp", "--dt", "[4,5,2]")
    assert code == 2
    assert "odd entry" in err


def test_warp_json_profile(capsys):
    code, out, _ = run(capsys, "warp", "--dt", "[4,6,2]", "--json", "--all-basepoints")
    payload = json.loads(out)
    assert payload["min_warp"] == 1
    assert payload["profile_forward"] == [1, 2, 1, 2, 1, 2]
    assert payload["basepoint"] == {"edge": 0, "forward": True}


def test_warp_mirror_flag(capsys):
    # per-basepoint degrees complement to 3, so the profile flips while
    # the minimum stays 1
    code, out, _ = run(capsys, "warp", "--dt", "[4,6,2]", "--mirror", "--json",
                       "--all-basepoints")
    payload = json.loads(out)
    assert code == 0
    assert payload["min_warp"] == 1
    assert payload["profile_forward"] == [2, 1, 2, 1, 2, 1]


def test_warp_all_basepoints_text(capsys):
    code, out, _ = run(capsys, "warp", "--dt", "[4,6,2]", "--all-basepoints")
    assert code == 0
    assert out.splitlines() == [
        "min_warp: 1",
        "basepoint: edge 0 forward",
        "profile forward: [1, 2, 1, 2, 1, 2]",
        "profile backward: [2, 1, 2, 1, 2, 1]",
    ]


def test_warp_gauss_file(tmp_path, capsys):
    path = tmp_path / "knot.gauss"
    path.write_text("# trefoil\n1 -3 2 -1 3 -2\n")
    code, out, _ = run(capsys, "warp", "--gauss", str(path))
    assert code == 0
    assert out.splitlines()[0] == "min_warp: 1"


def test_warp_gauss_file_breaks_lines_at_newlines_only(tmp_path, capsys):
    path = tmp_path / "knot.gauss"
    for ch in ("\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"):
        for end in ("\n", "\r\n", "\r"):
            path.write_text(f"# trefoil{ch}4 -5{end}1 -3 2 -1 3 -2{end}", encoding="utf-8", newline="")
            code, out, _ = run(capsys, "warp", "--gauss", str(path))
            assert (code, out.splitlines()[0]) == (0, "min_warp: 1")


def test_braid_counts(capsys):
    code, out, _ = run(capsys, "braid", "--word", "1 1 1", "counts")
    assert code == 0
    assert out.strip() == "(2, 1)"


def test_braid_unknotting(capsys):
    code, out, _ = run(capsys, "braid", "--word", "1 2 1 2", "unknotting")
    assert code == 0
    assert out.strip() == "1"


def test_braid_link_closure_rejected(capsys):
    code, _, err = run(capsys, "braid", "--word", "1 1", "counts")
    assert code == 2
    assert "closure has 2 components" in err


@pytest.mark.parametrize(
    "argv, components",
    [
        (["--word", "s100000000"], 100000000),
    ],
)
def test_braid_huge_strand_count_rejected_at_once(argv, components):
    # in a child interpreter held to 1 GiB of address space, so a strand
    # bound that no longer holds fails here within seconds, not by growing
    # the test process by a list of every strand
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    result = run_child("braid", *argv, "counts", preexec_fn=limit)
    assert (result.returncode, result.stderr) == (2, f"error: closure has at least {components} components\n")


def test_braid_zero_power_still_names_its_strands(capsys):
    assert run(capsys, "braid", "--word", "s5^0", "counts") == (
        2, "", "error: closure has at least 6 components\n")


@pytest.mark.parametrize("argv, stdin, message", [
    (["warp", "--dt", "4 6 0_2"], "", "malformed DT token '0_2'"),
    (["warp", "--dt", "+4 6 2"], "", "malformed DT token '+4'"),
    (["warp", "--dt", "\u0664 6 2"], "", "malformed DT token '\u0664'"),
    (["warp", "--gauss", "-"], "1 -2 3 -1 2 -0_3", "malformed Gauss token '-0_3'"),
    (["warp", "--gauss", "-"], "+1 -2 3 -1 2 -3", "malformed Gauss token '+1'"),
    (["warp", "--gauss", "-"], "\u0661 -2 3 -1 2 -3", "malformed Gauss token '\u0661'"),
    (["braid", "--word", "+1 1 1", "counts"], "", "malformed braid token '+1'"),
    (["braid", "--word", "1_0 1 1", "counts"], "", "malformed braid token '1_0'"),
    (["braid", "--word", "\u0661 1 1", "counts"], "", "malformed braid token '\u0661'"),
    (["warp", "--dt", "[4,\u00a06, 2]"], "", "malformed DT token '\\xa06'"),
    (["warp", "--gauss", "-"], "1\u2003-2 3 -1 2 -3", "malformed Gauss token '1\\u2003-2'"),
    (["braid", "--word", "1\u20032", "counts"], "", "malformed braid token '1\\u20032'"),
])
def test_integer_tokens_are_ascii_digits(capsys, monkeypatch, argv, stdin, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_braid_huge_power_rejected_before_expansion(capsys):
    code, _, err = run(capsys, "braid", "--word", "s1^999999999", "counts")
    assert code == 2
    assert "over the limit" in err


def test_braid_closure_dt(capsys):
    code, out, _ = run(capsys, "braid", "--word", "1 1 1", "closure-dt")
    assert code == 0
    assert out.strip() == "[4, 6, 2]"


def test_braid_reduce_prints_identities(capsys):
    code, out, _ = run(capsys, "braid", "--word", "1 2 1 2 1 2 1 2", "reduce")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("smooth")
    assert "(5, 3) -> (4, 2)" in lines[0]
    assert lines[-1] == "base case: counts (2, 0) on 3 strands"


def test_text_reduce_streams_in_linear_memory(capsys):
    # s1^4001 reduces in 2000 smoothings; a copy of the word per step, as
    # the list API keeps, would hold about 2000 * 16 KiB
    tracemalloc.start()
    try:
        code = main(["braid", "--word", "s1^4001", "reduce"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out = capsys.readouterr().out
    assert (code, out.count("\n")) == (0, 2001)
    assert out.endswith("base case: counts (1, 0) on 2 strands\n")
    assert peak < 4 << 20


def benchmark_words(seed, count):
    """The first ``count`` words of the braid benchmark at ``seed``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [text for _, text in module.braid_words(seed, count)]


def test_closure_dt_of_the_benchmark_words_matches_the_partner_array_oracle():
    for text in benchmark_words(1, 1000):
        gauss, _ = closure_gauss(parse_braid(text))
        assert gauss_to_dt(gauss) == dt_by_partner_array(gauss), text


def reduce_outputs(text):
    """Text and ``--json`` output of ``braid reduce``, built from the list API."""
    base, steps = reduce_to_base(parse_braid(text))
    a, b = ab_counts(base)
    lines = [f"{s.action} {s.detail}: counts {s.counts_before} -> {s.counts_after}\n" for s in steps]
    lines.append(f"base case: counts ({a}, {b}) on {base.strands} strands\n")
    payload = {
        "steps": [
            {
                "action": s.action,
                "detail": str(s.detail),
                "counts_before": list(s.counts_before),
                "counts_after": list(s.counts_after),
                "word": str(s.word),
            }
            for s in steps
        ],
        "final": {"a": a, "b": b},
    }
    return "".join(lines), json.dumps(payload) + "\n"


README_WORDS = ["1 1 1", "1 2 1 2", "2 1 3 2 1", "1 2 1 2 1 2 1 2", "1"]


def test_streamed_reduce_equals_the_list_api(capsys):
    for text in README_WORDS + ["s1^1001"] + benchmark_words(1, 50):
        want_text, want_json = reduce_outputs(text)
        assert run(capsys, "braid", "--word", text, "reduce") == (0, want_text, ""), text
        assert run(capsys, "braid", "--word", text, "--json", "reduce") == (0, want_json, ""), text


@pytest.mark.parametrize("word, message", [("1 1", "closure has 2 components"), ("-1 -1 -1", "word is not positive")])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_rejected_reduce_prints_nothing(capsys, word, message, mode):
    assert run(capsys, "braid", "--word", word, *mode, "reduce") == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, expected", [
    (["--word", "1 2 1 2 1 2 1 2"], {
        "steps": [
            {"action": "smooth", "detail": "Bigon(i=0, j=3, strands=(1, 2))",
             "counts_before": [5, 3], "counts_after": [4, 2], "word": "2 1 1 2 1 2"},
            {"action": "smooth", "detail": "Bigon(i=1, j=2, strands=(1, 3))",
             "counts_before": [4, 2], "counts_after": [3, 1], "word": "2 2 1 2"},
            {"action": "smooth", "detail": "Bigon(i=0, j=1, strands=(2, 3))",
             "counts_before": [3, 1], "counts_after": [2, 0], "word": "1 2"},
        ],
        "final": {"a": 2, "b": 0},
    }),
    (["--word", "2 1 3 2 1"], {
        "steps": [
            {"action": "remove", "detail": "RemovalCertificate(crossing=1, strand=3, m=1)",
             "counts_before": [4, 1], "counts_after": [2, 0], "word": "2 1"},
        ],
        "final": {"a": 2, "b": 0},
    }),
])
def test_braid_reduce_json_schema(capsys, argv, expected):
    code, out, err = run(capsys, "braid", *argv, "--json", "reduce")
    assert (code, err) == (0, "")
    assert out == json.dumps(expected) + "\n"


def test_braid_reduce_requires_positive(capsys):
    code, _, err = run(capsys, "braid", "--word", "-1 -1 -1", "reduce")
    assert code == 2
    assert "positive" in err


@pytest.mark.parametrize(
    "argv", [["verify-catalog", "--json", "-"], ["enumerate", "--crossings", "3", "--csv", "-"]]
)
def test_dash_is_not_an_output_path(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: output path '-' is not supported: stdout carries the text output\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_catalog_shipped(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify-catalog", "--json", str(out_path))
    assert code == 0
    assert out == BARE_REPORT
    payload = json.loads(out_path.read_text())
    assert payload["pass"] is True
    assert len(payload["rows"]) == 86
    assert payload["counts"] == {"src": 12, "rc": 32, "neither": 34, "unknown": 6}
    assert out_path.read_bytes() == (DATA / "verify_catalog.json").read_bytes()


def test_verify_catalog_flags_edited_row(capsys, tmp_path):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[1] = lines[1].replace("3_1,Y,1,1", "3_1,Y,1,2")
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    code, _, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert code == 1
    assert "row 2" in err


def _verify_with_trefoil_witness(capsys, tmp_path, witness):
    """Run verify-catalog on the first three packaged rows with the 3_1
    witness replaced; return the one FAIL row's identification."""
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[1] = lines[1].replace('"[4, 6, 2]"', f'"{witness}"')
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines[:4]))
    code, out, _ = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1
    report = json.loads(fails[0][len("FAIL "):])
    assert report["name"] == "3_1"
    assert "verified 3 rows, 1 failures" in out
    return report["identification"]


def test_verify_catalog_unrealizable_witness_is_a_fail_row(capsys, tmp_path):
    identification = _verify_with_trefoil_witness(capsys, tmp_path, "[4, 6, 8, 10, 2]")
    assert identification.startswith("not realizable: ")


def test_verify_catalog_empty_witness_is_a_fail_row(capsys, tmp_path):
    assert _verify_with_trefoil_witness(capsys, tmp_path, "[]") == "none"


def test_verify_catalog_short_row_exits_1_with_row_message(capsys, tmp_path):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert code == 1
    assert out == ""
    assert err == "catalog verification failed: row 3: expected 8 fields as in the header\n"


def test_verify_catalog_src_row_with_another_rc_crossing_exits_1_with_row_message(capsys, tmp_path):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",4"  # 3_1 stored SRC at rc-crossing 4
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert code == 1
    assert out == ""
    assert err == "catalog verification failed: row 2: stored property SRC but columns give RC\n"


def test_verify_catalog_field_over_the_csv_size_limit_exits_1_with_row_message(capsys, tmp_path):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[1] = lines[1].replace('"[4, 6, 2]"', '"[4, 6, 2' + ", 8" * 50_000 + ']"')
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines))
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert code == 1
    assert out == ""
    assert err == "catalog verification failed: row 2: field larger than field limit (131072)\n"


@pytest.mark.parametrize("old, new, message", [
    ("3_1,Y,1,1,", "3_1,Y,1_0,1,", "bad range '1_0'"),
    ("3_1,Y,1,1,", "3_1,Y,1,+1,", "bad range '+1'"),
    ("3_1,Y,1,1,", "3_1,Y,\u0661,1,", "bad range '\u0661'"),
    ('"[4, 6, 2]",3', '"[4, 6, 2]",\u0663', "bad rc-crossing '\u0663'"),
    ('"[4, 6, 2]",3', '"[4, 6, 2]",\u0661\u0662+', "bad rc-crossing '\u0661\u0662+'"),
    ("3_1,", "\u0663_1,", "bad knot name '\u0663_1'"),
    ("3_1,Y,1,1,", "3_1,Y,1\u2003..1,1,", "bad range '1\\u2003..1'"),
    ('"[4, 6, 2]",3', '"[4,\u00a06, 2]",3', "malformed DT token '\\xa06'"),
    ('"[4, 6, 2]",3', '"[4, 6, 2]","{3,\u200312+}"', "bad rc-crossing '{3,\\u200312+}'"),
])
def test_verify_catalog_reads_only_ascii_integers(capsys, tmp_path, old, new, message):
    # a malformed row stops the run before any row is checked, and exits 1
    # as every malformed catalog row does
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[1] = lines[1].replace(old, new)
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines), encoding="utf-8")
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert (code, out, err) == (1, "", f"catalog verification failed: row 2: {message}\n")


def test_verify_catalog_rejects_a_repeated_knot_name(capsys, tmp_path):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join([*lines[:3], lines[1]]), encoding="utf-8")
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert (code, out, err) == (1, "", "catalog verification failed: row 4: duplicate knot name 3_1\n")


def test_verify_catalog_takes_only_ascii_blanks_in_reference_terms(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3_1; 4:1\u200312:1 16:-1; x\n"))
    code, out, err = run(capsys, "verify-catalog", "--refs", "-")
    assert (code, out, err) == (2, "", "error: line 1: malformed term '4:1\\u200312:1'\n")


def test_verify_catalog_reads_only_ascii_reference_terms(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("3_1; +4:1_0 \u0661\u0662:-1; x\n"))
    code, out, err = run(capsys, "verify-catalog", "--refs", "-")
    assert (code, out, err) == (2, "", "error: line 1: malformed term '+4:1_0'\n")


_HEADER_MESSAGE = (
    "catalog verification failed: header: expected "
    "name,alternating,unknotting,ascending,lower_bound,property,dt,rc_crossing\n"
)


@pytest.mark.parametrize("rows", [0, 3])
def test_verify_catalog_misnamed_header_exits_1(capsys, tmp_path, rows):
    from importlib import resources

    lines = resources.files("rollercoaster.data").joinpath("catalog.csv").read_text().splitlines()
    lines[0] = lines[0].replace("rc_crossing", "rc_crossings")
    bad = tmp_path / "catalog.csv"
    bad.write_text("\n".join(lines[: rows + 1]) + "\n")
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert (code, out, err) == (1, "", _HEADER_MESSAGE)


@pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "blank-line"])
def test_verify_catalog_without_header_exits_1(capsys, tmp_path, text):
    bad = tmp_path / "catalog.csv"
    bad.write_text(text)
    code, out, err = run(capsys, "verify-catalog", "--catalog", str(bad))
    assert (code, out, err) == (1, "", _HEADER_MESSAGE)


def test_verify_catalog_ambiguous_refs_is_a_fail_row(capsys, tmp_path):
    # the trefoil polynomial twice: the 3_1 row names both and fails
    text = (PACKAGED / "jones_refs.dat").read_text(encoding="utf-8")
    trefoil = next(line for line in text.splitlines() if line.startswith("3_1;"))
    refs = tmp_path / "refs.dat"
    refs.write_text(text + trefoil.replace("3_1;", "3_1x;", 1) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "verify-catalog", "--refs", str(refs))
    assert (code, err) == (1, "")
    fails = [json.loads(line[len("FAIL "):]) for line in out.splitlines() if line.startswith("FAIL ")]
    assert [(r["name"], r["identification"]) for r in fails] == [("3_1", "ambiguous: 3_1, 3_1x")]
    assert {"name": "identification", "pass": False} in fails[0]["checks"]
    assert "verified 86 rows, 1 failures\n" in out


def test_verify_catalog_over_cap_witness_is_a_fail_row(capsys, tmp_path):
    from rollercoaster import extract_dt, parse_braid, pd_from_braid
    from rollercoaster.codes import format_dt

    # the T(9,10) closure: 80 crossings, a bracket frontier of 18 open edges
    word = parse_braid(" ".join(["s1 s2 s3 s4 s5 s6 s7 s8"] * 10))
    witness = format_dt(extract_dt(pd_from_braid(word)))
    identification = _verify_with_trefoil_witness(capsys, tmp_path, witness)
    assert identification == "over cap: frontier of 18 open edges exceeds the limit of 16"


PACKAGED = Path(cli.__file__).resolve().parent / "data"
BARE_REPORT = "verified 86 rows, 0 failures\nSRC=12 RC=32 Neither=34 Unknown=6\n"


def test_verify_catalog_bare_report(capsys):
    assert run(capsys, "verify-catalog") == (0, BARE_REPORT, "")


def test_verify_catalog_packaged_files_by_path(capsys):
    argv = ["--catalog", str(PACKAGED / "catalog.csv"), "--refs", str(PACKAGED / "jones_refs.dat")]
    assert run(capsys, "verify-catalog", *argv) == (0, BARE_REPORT, "")


@pytest.mark.parametrize("option, name", [("--catalog", "catalog.csv"), ("--refs", "jones_refs.dat")])
def test_verify_catalog_reads_dash_from_stdin(capsys, monkeypatch, option, name):
    monkeypatch.setattr("sys.stdin", io.StringIO((PACKAGED / name).read_text()))
    assert run(capsys, "verify-catalog", option, "-") == (0, BARE_REPORT, "")


def test_verify_catalog_one_stdin_cannot_feed_both(capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_catalog", _no_work)
    assert run(capsys, "verify-catalog", "--catalog", "-", "--refs", "-") == (
        2, "", "error: --catalog and --refs cannot both read stdin\n")


def test_verify_catalog_missing_refs(capsys):
    code, out, err = run(capsys, "verify-catalog", "--refs", "/nonexistent/refs.dat")
    assert (code, out) == (2, "")
    assert err == "error: [Errno 2] No such file or directory: '/nonexistent/refs.dat'\n"


def _no_work(*args, **kwargs):
    raise AssertionError("work started before the output path was checked")


def test_verify_catalog_bad_json_path_fails_before_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "verify_catalog", _no_work)
    code, out, err = run(capsys, "verify-catalog", "--json", "/nonexistent/x.json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "/nonexistent/x.json" in err


def test_conjecture(capsys):
    code, out, _ = run(capsys, "conjecture", "--max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "c=3 computed=1 predicted=1 match witness=[4, 6, 2]"
    assert len(lines) == 2


@pytest.mark.parametrize("value", ["11", "2"])
def test_conjecture_rejects_max_outside_range(capsys, value):
    code, out, err = run(capsys, "conjecture", "--max", value)
    assert code == 2
    assert out == ""
    assert f"--max {value} outside supported range 3..10" in err


def test_cap_option_is_gone():
    assert fuzz_exit_code(["conjecture", "--max", "8", "--cap", "10"]) == 2
    assert fuzz_exit_code(["enumerate", "--crossings", "8", "--cap", "10"]) == 2
    assert fuzz_exit_code(["braid", "--word", "1 1 1", "--strands", "2", "counts"]) == 2


@pytest.mark.parametrize("value", ["11", "2"])
def test_enumerate_rejects_crossings_outside_range(capsys, tmp_path, value):
    out_csv = tmp_path / "codes.csv"
    code, out, err = run(capsys, "enumerate", "--crossings", value, "--csv", str(out_csv))
    assert code == 2
    assert out == ""
    assert err == f"error: crossing number {value} outside supported range 3..10\n"
    assert not out_csv.exists()


def test_enumerate_with_csv(capsys, tmp_path):
    out_csv = tmp_path / "codes.csv"
    code, out, _ = run(capsys, "enumerate", "--crossings", "3", "--csv", str(out_csv))
    assert code == 0
    assert out.splitlines() == ["[4, 6, 2]", "1 diagrams at c=3"]
    assert out_csv.read_text().splitlines() == ["crossings,dt", '3,"[4, 6, 2]"']


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--crossings", "5", "--json")
    assert code == 0
    assert out == '{"crossings": 5, "codes": [[4, 8, 10, 2, 6], [6, 8, 10, 2, 4]]}\n'


def test_enumerate_bad_csv_path_fails_before_work(capsys, monkeypatch):
    monkeypatch.setattr(cli, "enumerate_alternating", _no_work)
    code, out, err = run(capsys, "enumerate", "--crossings", "3", "--csv", "/nonexistent/x.csv")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "/nonexistent/x.csv" in err


def test_enumerate_streams_rows_as_found(capsys, monkeypatch, tmp_path):
    def first_then_fail(c):
        yield DTCode((4, 6, 2))
        raise RuntimeError("interrupted")

    monkeypatch.setattr(cli, "enumerate_alternating", first_then_fail)
    out_csv = tmp_path / "codes.csv"
    with pytest.raises(RuntimeError):
        main(["enumerate", "--crossings", "3", "--csv", str(out_csv)])
    assert capsys.readouterr().out == "[4, 6, 2]\n"
    assert out_csv.read_text().splitlines() == ["crossings,dt", '3,"[4, 6, 2]"']


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("argv, expected", [
    (["conjecture", "--max", "9", "--json"], "conjecture_max9.json"),
    (["enumerate", "--crossings", "9"], "enumerate_c9.txt"),
])
def test_c9_output_pinned(capsys, argv, expected):
    # the bytes the walk over all 9! permutations printed
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / expected).read_text()


def test_c10_enumeration_pinned(capsys):
    # the class list the CI step diffs, in tier-1 too (about 1 s)
    assert run(capsys, "enumerate", "--crossings", "10") == (0, (DATA / "enumerate_c10.txt").read_text(), "")


# arbitrary text, and text over the characters codes are written in so
# that the fuzz also reaches the validators behind the tokenizer
CODE_TEXT = st.one_of(st.text(), st.text(alphabet="[]0123456789-, \n#", max_size=40))


def fuzz_exit_code(argv, stdin=""):
    """Exit code of the CLI run in-process; argparse usage errors leave
    through SystemExit, as they do from the console script."""
    with mock.patch("sys.stdin", io.StringIO(stdin)), mock.patch("sys.stdout", io.StringIO()), \
            mock.patch("sys.stderr", io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(CODE_TEXT)
@settings(max_examples=300, deadline=None)
def test_warp_dt_fuzz_exits_cleanly(text):
    assert fuzz_exit_code(["warp", f"--dt={text}"]) in (0, 1, 2)


@given(CODE_TEXT)
@settings(max_examples=300, deadline=None)
def test_warp_gauss_stdin_fuzz_exits_cleanly(text):
    assert fuzz_exit_code(["warp", "--gauss", "-"], stdin=text) in (0, 1, 2)


# "^" only comes from tokens whose power is either small or over the letter
# cap: a word just under the cap parses, but reducing it would take hours
POWER_TOKEN = st.builds("s{}^{}".format, st.integers(0, 9),
                        st.one_of(st.integers(-9, 9), st.integers(min_value=MAX_BRAID_LETTERS + 1)))
BRAID_TEXT = st.one_of(
    st.one_of(st.text(), st.text(alphabet="s0123456789- ,", max_size=30)).filter(lambda t: "^" not in t),
    st.lists(st.one_of(POWER_TOKEN, st.text(alphabet="s0123456789-^,", max_size=4)), max_size=8).map(" ".join),
)


@given(BRAID_TEXT, st.sampled_from(["counts", "unknotting", "closure-dt", "reduce"]))
@settings(max_examples=300, deadline=None)
def test_braid_word_fuzz_exits_cleanly(text, operation):
    assert fuzz_exit_code(["braid", f"--word={text}", operation]) in (0, 1, 2)


def test_lone_double_dash_value_is_a_usage_error():
    assert fuzz_exit_code(["warp", "--dt=--"]) == 2


def test_stdin_dt(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("[4, 6, 8, 2]"))
    code, out, _ = run(capsys, "warp", "--dt", "-")
    assert code == 0
    assert out.splitlines()[0] == "min_warp: 1"


def test_python_dash_m_runs_the_cli():
    result = run_child("braid", "--word", "1 1 1", "counts")
    assert (result.returncode, result.stdout) == (0, "(2, 1)\n")
