"""Three source rules the CI grep steps also check, read with ``ast`` so
that they hold in tier-1 as well: no ``assert`` statement in ``src/`` or
``scripts/`` (``python -O`` strips them), no engine name that an
oracle-independence step forbids in ``tests/oracles.py``, and input read
only through ``codes._read_text``: no ``open`` call, ``resources.files``
or ``sys.stdin`` in ``catalog.py`` and ``invariants.py``, and no
``sys.stdin`` or ``CliError`` in ``cli.py``.  Each name an
oracle-independence step forbids must also be defined in ``src/``, so
that no step guards a name the engine no longer has."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
ORACLES = ROOT / "tests" / "oracles.py"
PACKAGE = ROOT / "src" / "rollercoaster"

# a CI step that keeps the oracles apart from the engine:
#     ! grep -nE '<pattern>' tests/oracles.py
_ORACLE_STEP = re.compile(r"^\s*! grep -nE '([^']+)' tests/oracles\.py\s*$", re.M)


def _asserts(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def _names(tree):
    """Every name the module binds, imports (``as`` names too) or reads,
    and every identifier-like string, as ``getattr`` would take it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                for name in (*alias.name.split("."), alias.asname):
                    if name:
                        yield name, node.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def _forbidden(tree, patterns):
    return sorted({f"line {line}: {name}" for name, line in _names(tree) for p in patterns if re.search(p, name)})


def _own_reads(tree, *, files_too):
    """Where a module reads input itself: ``sys.stdin`` in any form and,
    with ``files_too``, a call to ``open`` (``io.open`` too) or to a
    loader's ``get_data``, and ``resources.files``, imported or reached as
    an attribute."""
    hits = {f"line {line}: stdin" for name, line in _names(tree) if name == "stdin"}
    if files_too:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in ("open", "get_data"):
                    hits.add(f"line {node.lineno}: {name}")
            elif isinstance(node, ast.Attribute) and node.attr == "files":
                if isinstance(node.value, ast.Name) and node.value.id == "resources":
                    hits.add(f"line {node.lineno}: resources.files")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("resources"):
                if any(alias.name == "files" for alias in node.names):
                    hits.add(f"line {node.lineno}: resources.files")
    return sorted(hits)


def oracle_step_patterns():
    return _ORACLE_STEP.findall(WORKFLOW.read_text(encoding="utf-8"))


def test_no_assert_statements_in_src_or_scripts():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _asserts(path)] == []


def test_the_six_oracle_independence_steps_are_read():
    patterns = oracle_step_patterns()
    assert len(patterns) >= 6
    for name in (
        "_first_bigon", "_closure_walk", "_walk", "_below", "closure_components", "kauffman_bracket",
        "_least_reading", "_crossing", "count_faces", "_faces", "_unchecked", "_smoothing_arcs",
        "_PLAIN_LETTERS", "_reduce", "_orientation_bits", "_interlacement", "realize", "jones",
    ):
        assert any(re.search(p, name) for p in patterns), name


def test_oracles_use_no_name_the_independence_steps_forbid():
    tree = ast.parse(ORACLES.read_text(encoding="utf-8"))
    assert _forbidden(tree, oracle_step_patterns()) == []


def _defined(tree):
    """Every function and class the module defines, nested ones too, and
    every name its top level assigns."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in tree.body:
        for target in getattr(node, "targets", [getattr(node, "target", None)]):
            if isinstance(target, ast.Name):
                yield target.id


def test_every_name_an_oracle_step_forbids_is_defined_in_src():
    defined = {name for path in PACKAGE.glob("*.py") for name in _defined(ast.parse(path.read_text(encoding="utf-8")))}
    # the names a step's pattern alternates between, its \b anchors dropped
    forbidden = {name for p in oracle_step_patterns() for name in re.findall(r"\w+", p.replace(r"\b", ""))}
    assert "_WEIGHT" in forbidden and "_twins" in forbidden
    assert sorted(forbidden - defined) == []


def test_forbidden_names_are_seen_through_every_form():
    patterns = oracle_step_patterns()
    for source in (
        "from rollercoaster.braid import _first_bigon as f",
        "import rollercoaster.braid as b\nb._remove_strand",
        "from rollercoaster import codes\ngetattr(codes, '_unchecked')",
        "from rollercoaster.embed import _crossing",
        "from rollercoaster import embed\nembed.count_faces",
        "from rollercoaster import braid\nw = braid.parse_braid('1 1 1')\nw._walk._below",
        "import rollercoaster\nrollercoaster.jones",
    ):
        assert _forbidden(ast.parse(source), patterns), source
    # the anchored names pass inside longer ones
    assert _forbidden(ast.parse("from rollercoaster.embed import _crossing_sign, is_realizable"), patterns) == []


def test_input_is_read_only_through_read_text():
    for name in ("catalog.py", "invariants.py"):
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        assert _own_reads(tree, files_too=True) == [], name
    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert _own_reads(cli, files_too=False) == []
    assert [line for name, line in _names(cli) if name == "CliError"] == []


def test_own_reads_are_seen_through_every_form():
    for source in (
        "open(path)",
        "import io\nio.open(path)",
        "__loader__.get_data(path)",
        "from importlib import resources\nresources.files('rollercoaster.data')",
        "from importlib.resources import files",
        "import sys\nsys.stdin.read()",
        "from sys import stdin",
    ):
        assert _own_reads(ast.parse(source), files_too=True), source
    assert _own_reads(ast.parse("import sys\nsys.stdin"), files_too=False)
    assert _own_reads(ast.parse("open(path)"), files_too=False) == []
    assert _own_reads(ast.parse("_read_text(path, 'catalog.csv').split()"), files_too=True) == []
