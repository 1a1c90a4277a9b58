"""Every ``$ rollercoaster ...`` example in README.md, replayed through
``cli.main``: the printed output must match the README exactly.  The
``## Library`` block is run too, each commented result checked."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rollercoaster.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples():
    """(command, expected stdout) pairs; an example's output runs from its
    ``$`` line to the next blank line or fence."""
    examples, output = [], None
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ rollercoaster "):
            output = []
            examples.append((line[2:], output))
        elif output is not None and line.strip() and not line.startswith("```"):
            output.append(line)
        else:
            output = None
    return [(command, "".join(line + "\n" for line in output)) for command, output in examples]


EXAMPLES = readme_examples()


def test_readme_has_the_examples():
    assert len(EXAMPLES) == 10


@pytest.mark.parametrize("command, expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_example():
    # a statement whose line ends in "# result" is checked: a print call
    # prints the result, any other expression evaluates to its literal
    text = README.read_text(encoding="utf-8")
    source = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.S | re.M).group(1)
    lines, namespace, checked = source.splitlines(), {}, []
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        comment = re.search(r"\s#\s(.+)$", lines[statement.end_lineno - 1])
        if comment is None:
            exec(code, namespace)
            continue
        expected = comment.group(1).strip()
        call = statement.value
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                exec(code, namespace)
            assert out.getvalue() == expected + "\n", code
        else:
            assert eval(code, namespace) == ast.literal_eval(expected), code
        checked.append(expected)
    assert checked == ["1", "t + t^3 - t^4", '["3_1"]']
