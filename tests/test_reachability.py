"""The reachability census: which functions in ``src/rollercoaster`` the
package's callers run.

The callers are the command line (``cli.main`` over every subcommand and
flag, and its error paths), ``scripts/make_jones_refs.py``'s
``table_text()`` and the benchmark's workloads (their tiny items, pass
checks, descriptions and CLI replays, read from ``perfbench/workloads.py``).
Run as a script, this file drives them in a fresh interpreter that has
``sys.setprofile`` set before ``rollercoaster`` is imported, so calls made
at import time count, and prints the (file, first line) of every code
object entered.  The test compares the functions never entered with
``UNREACHED``, a pinned map from qualified name to the reason the function
stays.  A function that no caller runs either gets a reason there or is
deleted; one that a caller reaches again leaves the map.

Functions are keyed by file and by the line of their ``def`` or of their
first decorator, found with ``ast`` (``co_firstlineno`` is one of the two,
and ``co_qualname`` is missing before Python 3.11), so comprehension
frames, which Python 3.12 inlines, play no part.
"""

import ast
import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rollercoaster"

UNREACHED = {
    # the paper's named concepts, kept as the library states them
    "codes._gauss_chords": "paper concept: the chords is_reduced reads",
    "codes.is_reduced": "paper concept: a reduced diagram has no nugatory crossing",
    "embed.pd_from_braid": "paper concept: the planar diagram of a braid closure",
    "warp.apply_roller_coaster": "paper concept: the roller-coaster move that makes a diagram descending",
    # library API: the inverse of realize and the cheap realizability test
    "braid.BraidWord.is_positive": "library API: a word's positivity",
    "embed.Crossing.__post_init__": "library API: checks a crossing a caller builds; the package's own are unchecked",
    "embed.PlanarDiagram.__post_init__": "library API: checks a diagram a caller builds; the package's own are unchecked",
    "embed.count_faces": "library API: the faces of any rotation system; a diagram counts its own from its dart table",
    "embed.extract_dt": "library API: the DT code of a planar diagram",
    "embed.extract_gauss": "library API: the Gauss code of a planar diagram",
    "embed.is_realizable": "library API: realize's colouring without the diagram",
    # the record base: what a caller does with a record that no CLI path does
    "codes._Record.__eq__": "library API: records compare by their fields",
    "codes._Record.__hash__": "library API: records hash by their fields, so a caller can key a set or dict on them",
    "codes._Record._values": "library API: the field tuple that __eq__ and __hash__ read",
    "codes._Record.__setattr__": "library API: records are frozen; the package fills its own through the instance dict",
    # display: what a caller prints or reprs in a session
    "catalog.Range.__str__": "display",
    "codes._Record.__repr__": "display: the repr a frozen dataclass gave",
    "codes.GaussCode.__str__": "display",
    "codes.format_gauss": "display: the Gauss code as parse_gauss reads it",
    "invariants.Laurent.__repr__": "display",
    "invariants.Laurent.__str__": "display: the README prints a Jones polynomial",
}


def _functions():
    """Qualified name -> (file name, the lines its code object may start at)
    for every function defined in the package, nested ones included."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    lines = {child.lineno} | {d.lineno for d in child.decorator_list[:1]}
                    found[name] = (path.name, lines)
                visit(child, name, path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path)
    return found


def _drive(tmp):
    """Run every caller once on small inputs; errors are part of the run."""
    from rollercoaster import cli

    def main(*argv, stdin=""):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                mock.patch("sys.stdin", io.StringIO(stdin)):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return code, out.getvalue()

    def write(name, text):
        path = tmp / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    catalog = (PACKAGE / "data" / "catalog.csv").read_text(encoding="utf-8").split("\n")
    refs = (PACKAGE / "data" / "jones_refs.dat").read_text(encoding="utf-8")
    trefoil = next(line for line in refs.split("\n") if line.startswith("3_1;"))
    small = write("small.csv", "\n".join(catalog[:4]) + "\n")
    failing = write("fail.csv", catalog[0] + '\n3_1,Y,1,1,UnknottingNumber,SRC,"[4, 8, 2, 6]",3\n'
                    '5_1,Y,2,2,UnknottingNumber,SRC,"[4, 6, 8, 10, 2]",5\n')
    gauss = write("trefoil.gauss", "# a trefoil\n1 -2 3\n-1 2 -3\n")
    calls = [
        ("warp", "--dt", "[4, 6, 2]"),
        ("warp", "--dt", "[4, 6, 2]", "--all-basepoints"),
        ("warp", "--dt", "[4,6,8,2]", "--all-basepoints", "--mirror", "--json"),
        ("warp", "--gauss", gauss),
        ("warp", "--gauss", gauss, "--mirror", "--json"),
        ("warp", "--dt", "[4, x, 2]"),
        ("warp", "--gauss", str(tmp / "missing.gauss")),
        ("warp", "--dt=--"),
        ("verify-catalog", "--catalog", small),
        ("verify-catalog", "--catalog", small, "--json", str(tmp / "report.json")),
        ("verify-catalog", "--catalog", failing, "--json", str(tmp / "fail.json")),
        ("verify-catalog", "--catalog", small, "--refs", write("dup.dat", f"{trefoil}\nx{trefoil}\n")),
        ("verify-catalog", "--catalog", write("bad.csv", "name\n")),
        ("verify-catalog", "--catalog", "-", "--refs", "-"),
        ("conjecture", "--max", "4"),
        ("conjecture", "--max", "4", "--json"),
        ("conjecture", "--max", "2"),
        ("enumerate", "--crossings", "4"),
        ("enumerate", "--crossings", "4", "--json"),
        ("enumerate", "--crossings", "3", "--csv", str(tmp / "c3.csv")),
        ("enumerate", "--crossings", "11"),
        ("enumerate", "--crossings", "3", "--csv", "-"),
        ("braid", "--word", "s1 s2 s1^-1", "counts"),
        ("braid", "--word", "1 2 1 2", "reduce"),
        ("braid", "--word", "s1 s2", "reduce"),
        ("braid", "--word", "1 x", "counts"),
        ("braid", "--word", "1 1", "counts"),
        ("braid", "--word", "1 -1 1", "reduce"),
        ("braid", "--word", "1 0", "counts"),
        ("braid", "--word", "s1 s2 s3^-1 s2", "unknotting"),
    ]
    for op in ("counts", "unknotting", "closure-dt", "reduce"):
        calls += [("braid", "--word", "2 1 3 2 1", op), ("braid", "--word", "2 1 3 2 1", "--json", op)]
    for argv in calls:
        main(*argv)
    main("warp", "--dt", "-", stdin="[4, 6, 2]\n")
    main("warp", "--gauss", "-", stdin="1 -2 3 -1 2 -3\n")

    sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]
    import make_jones_refs
    import workloads

    make_jones_refs.table_text()
    for workload in workloads.WORKLOADS.values():
        bench = workload(seed=1, tiny=True)
        outputs = [bench.run_item(item) for item in bench.items]
        for index, output in enumerate(outputs):
            bench.check_item(index, output)
            bench.counters(output)
        bench.check_pass(bench.finish_pass(), None)
        bench.describe()
        for argv, check in bench.cli_calls(outputs, tmp / "replay.json"):
            check(*main(*argv))


def _census():
    """The code objects entered while the callers run, as (file, line)."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    with tempfile.TemporaryDirectory() as tmp:
        _drive(pathlib.Path(tmp))
    sys.setprofile(None)
    import rollercoaster

    if pathlib.Path(rollercoaster.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"rollercoaster imported from {rollercoaster.__file__}, not {PACKAGE}")
    return sorted(
        {(path.name, code.co_firstlineno) for code in entered
         for path in [pathlib.Path(code.co_filename).resolve()] if path.parent == PACKAGE}
    )


def test_every_unreached_function_is_pinned_with_a_reason():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    entered = {tuple(key) for key in json.loads(result.stdout)}
    unreached = {
        name for name, (file, lines) in _functions().items()
        if not any((file, line) in entered for line in lines)
    }
    assert sorted(unreached - UNREACHED.keys()) == [], "newly unreached: pin with a reason, or delete"
    assert sorted(UNREACHED.keys() - unreached) == [], "pinned but reached or gone: unpin"
    assert all(UNREACHED.values())


if __name__ == "__main__":
    print(json.dumps(_census()))
