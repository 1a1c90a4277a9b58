"""Every ``$ rollercoaster ...`` example in README.md, replayed through
``cli.main``: the printed output must match the README exactly."""

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
