"""What a short CLI run loads: the modules only one rarely used function
needs, the code generators of ``dataclasses``, ``typing``, and the
``importlib.resources`` machinery stay out of the import, and so does
every engine module the command does not run: a bare ``import
rollercoaster`` loads none of them, ``braid`` only ``codes`` and
``braid``, ``warp`` only ``codes`` and ``warp``.  Measured by module set,
not by time, in a fresh ``python -S`` so that no ``site`` hook preloads
anything, for a ``braid`` run, a ``warp`` run and ``verify-catalog``,
which reads both packaged tables through the module's own loader.  The
same loader serves them from a zip import, run the same way."""

import json
import os
import pathlib
import subprocess
import sys
import zipfile

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# dataclasses with what it pulls in, the single-use imports kept in their
# functions: Fraction (Laurent.span and __str__) and random
# (random_positive_braid_knot), typing, and importlib.resources with what
# it pulls in, which the packaged-file reader (codes._read_text) once used
NOT_LOADED = [
    "dataclasses", "decimal", "fractions", "importlib.resources", "inspect", "random", "tempfile", "typing",
    "zipfile",
]

# argv: the directory or zip to import from, then the CLI arguments; with
# "--tables" in front, the two packaged tables' lengths are printed too
_RUN = """
import contextlib, io, json, sys
tables = sys.argv[1] == "--tables"
sys.path.insert(0, sys.argv[1 + tables])
import rollercoaster
imported = sorted(sys.modules)
from rollercoaster import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[2 + tables:])
run = {
    "code": code, "out": out.getvalue(), "file": rollercoaster.__file__, "imported": imported,
    "loaded": sorted(sys.modules),
}
if tables:
    from rollercoaster.catalog import load_catalog
    run["tables"] = [len(load_catalog()), len(rollercoaster.load_jones_refs())]
print(json.dumps(run))
"""


def _fresh_run(*argv):
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "-S", "-c", _RUN, *argv], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_a_braid_run_loads_no_single_use_module():
    run = _fresh_run(str(SRC), "braid", "--word", "1 1 1", "counts")
    assert (run["code"], run["out"]) == (0, "(2, 1)\n")
    assert pathlib.Path(run["file"]).resolve().is_relative_to(SRC)
    assert [name for name in NOT_LOADED if name in run["loaded"]] == []


def _package(modules):
    return [name for name in modules if name.split(".")[0] == "rollercoaster"]


def test_a_bare_import_loads_no_engine_module():
    run = _fresh_run(str(SRC), "braid", "--word", "1 1 1", "counts")
    assert _package(run["imported"]) == ["rollercoaster"]


def test_a_braid_run_loads_only_the_modules_it_runs():
    run = _fresh_run(str(SRC), "braid", "--word", "1 1 1", "counts")
    assert _package(run["loaded"]) == [
        "rollercoaster", "rollercoaster.braid", "rollercoaster.cli", "rollercoaster.codes",
    ]
    assert "csv" not in run["loaded"]


def test_a_warp_run_loads_only_the_modules_it_runs():
    run = _fresh_run(str(SRC), "warp", "--dt", "[4, 6, 2]")
    assert (run["code"], run["out"]) == (0, "min_warp: 1\nbasepoint: edge 0 forward\n")
    assert _package(run["loaded"]) == [
        "rollercoaster", "rollercoaster.cli", "rollercoaster.codes", "rollercoaster.warp",
    ]


def test_a_verify_catalog_run_loads_no_single_use_module():
    run = _fresh_run(str(SRC), "verify-catalog")
    assert (run["code"], run["out"].splitlines()[0]) == (0, "verified 86 rows, 0 failures")
    assert pathlib.Path(run["file"]).resolve().is_relative_to(SRC)
    assert [name for name in NOT_LOADED if name in run["loaded"]] == []


def test_the_packaged_tables_read_from_a_zip_import(tmp_path):
    archive = tmp_path / "rollercoaster.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for path in sorted((SRC / "rollercoaster").rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zf.write(path, path.relative_to(SRC).as_posix())
    run = _fresh_run("--tables", str(archive), "verify-catalog")
    assert run["file"].startswith(str(archive) + os.sep)
    assert (run["code"], run["out"].splitlines()[0]) == (0, "verified 86 rows, 0 failures")
    assert run["tables"] == [86, 86]
