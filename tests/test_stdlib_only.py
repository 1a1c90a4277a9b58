"""The package imports nothing outside the standard library at runtime."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "rollercoaster"


def test_runtime_imports_are_stdlib_only():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside += [f"{path.name}: {name}" for name in sorted(top - sys.stdlib_module_names)]
    assert outside == []
