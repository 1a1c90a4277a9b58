"""Golden CLI corpus: recorded argv, exit code, stdout and stderr.

``tests/data/cli_golden.jsonl`` holds one case per line, the JSON list
``[argv, exit code, stdout, stderr]``: ``warp --dt`` on every packaged
witness, in text and ``--json``, with and without ``--all-basepoints``
and ``--mirror``; and every ``braid`` operation, in text and
``--json``, on the README words, three rejected words, sixty seeded
positive knot words and eighty seeded signed words, links and
non-positive words among them.  The test replays each case through
``cli.main`` in this process and names every case whose output differs,
with a diff.  After a deliberate output change, rewrite the file with

    PYTHONPATH=src python3 tests/test_cli_golden.py --write
"""

import contextlib
import difflib
import io
import json
import pathlib
import random
import shlex
import sys

from rollercoaster import random_positive_braid_knot
from rollercoaster.catalog import load_catalog
from rollercoaster.codes import format_dt
from rollercoaster.cli import main

CORPUS = pathlib.Path(__file__).resolve().parent / "data" / "cli_golden.jsonl"

README_WORDS = ("1 1 1", "1 2 1 2", "2 1 3 2 1", "2 4 3 1 2 2")
REJECTED_WORDS = ("1 1", "-1 -1 -1", "s1000000")
OPERATIONS = ("counts", "unknotting", "closure-dt", "reduce")


def signed_words(count: int = 80, seed: int = 33):
    """Seeded words of 2 to 5 strands and up to 8 letters of either sign."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        n = rng.randint(2, 5)
        letters = [rng.randint(1, n - 1) * rng.choice((1, -1)) for _ in range(rng.randint(1, 8))]
        words.append(" ".join(map(str, letters)))
    return words


def cases():
    """Every argv of the corpus, in its order."""
    for entry in load_catalog():
        dt = format_dt(entry.dt)
        for flags in ((), ("--all-basepoints",), ("--mirror",), ("--all-basepoints", "--mirror")):
            for json_flag in ((), ("--json",)):
                yield ["warp", "--dt", dt, *flags, *json_flag]
    knots = [str(random_positive_braid_knot(6, 20, seed)) for seed in range(7000, 7060)]
    for word in (*README_WORDS, *REJECTED_WORDS, *knots, *signed_words()):
        for op in OPERATIONS:
            for json_flag in ((), ("--json",)):
                yield ["braid", "--word", word, *json_flag, op]


def replay(argv) -> list:
    """One case run through ``cli.main``: its argv, exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return [list(argv), code, out.getvalue(), err.getvalue()]


def _read_corpus():
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _diff(want: list, got: list) -> str:
    lines = [f"case: {shlex.join(want[0])}"]
    if want[1] != got[1]:
        lines.append(f"  exit {want[1]} -> {got[1]}")
    for stream, recorded, now in (("stdout", want[2], got[2]), ("stderr", want[3], got[3])):
        lines += difflib.unified_diff(
            recorded.splitlines(), now.splitlines(), f"{stream} recorded", f"{stream} now", lineterm=""
        )
    return "\n".join(lines)


def test_corpus_covers_every_case_once():
    recorded = [case[0] for case in _read_corpus()]
    assert recorded == list(cases())


def test_every_recorded_cli_case_replays_byte_for_byte():
    failures = []
    for want in _read_corpus():
        got = replay(want[0])
        if got != want:
            failures.append(_diff(want, got))
    assert not failures, f"{len(failures)} cases differ:\n" + "\n".join(failures[:10])


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_cli_golden.py --write")
    records = [replay(argv) for argv in cases()]
    CORPUS.write_text("".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records), encoding="utf-8")
    print(f"wrote {len(records)} cases to {CORPUS}")
