"""What a short CLI run loads: the modules only one rarely used function
needs, and the code generators of ``dataclasses``, stay out of the
import.  Measured by module set, not by time, in a fresh ``python -S``
so that no ``site`` hook preloads anything."""

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# dataclasses with what it pulls in, and the single-use imports kept in
# their functions: Fraction (Laurent.span and __str__), the packaged-file
# reader (codes._read_text) and random (random_positive_braid_knot)
NOT_LOADED = [
    "dataclasses", "decimal", "fractions", "importlib.resources", "inspect", "random", "tempfile", "zipfile",
]

_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import rollercoaster
from rollercoaster import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(["braid", "--word", "1 1 1", "counts"])
print(json.dumps({"code": code, "out": out.getvalue(), "file": rollercoaster.__file__, "loaded": sorted(sys.modules)}))
"""


def test_a_braid_run_loads_no_single_use_module():
    result = subprocess.run(
        [sys.executable, "-S", "-c", _RUN, str(SRC)], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    run = json.loads(result.stdout)
    assert (run["code"], run["out"]) == (0, "(2, 1)\n")
    assert pathlib.Path(run["file"]).resolve().is_relative_to(SRC)
    assert [name for name in NOT_LOADED if name in run["loaded"]] == []
