"""The benchmark's three workloads: catalog, conjecture and braid.

Each workload drives the library through the public calls the matching
CLI subcommand makes, one item at a time, and checks every output
against values pinned in ``expected.json`` or against identities the
paper proves.  Calls go through module attributes (``catalog.verify_entry``
rather than a name bound here) so that the tracer's wrappers see them.

A workload object provides:

* ``items``: the inputs, one per timed item;
* ``run_item(item)``: the library calls for one item, returning its output;
* ``finish_pass()``: pass-level work after the last item (may return None);
* ``check_item(index, output)``: a problem description, or None;
* ``load()``: the set-up work (also run once under the tracer);
* ``check_pass(tail, layers)``: problem descriptions for the pass as a whole;
  ``layers`` is the tracer snapshot of that pass, or None when untraced;
* ``counters(output)``: counts derived from one item's output, summed
  over the pass;
* ``cli_calls(outputs, out_path)``: (argv, check) pairs that replay the pass
  through ``cli.main``, writing any report file to ``out_path``;
  ``check(code, stdout)`` returns a problem or None;
* ``describe()``: a summary of the inputs.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from pathlib import Path

from rollercoaster import braid, catalog, codes, invariants, search, warp

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())


class CatalogWorkload:
    """``verify_entry`` over the packaged rows, refs loaded once, as
    ``rollercoaster verify-catalog`` does."""

    name = "catalog"

    def __init__(self, seed: int, tiny: bool = False, expected=None):
        self.expected = expected or EXPECTED["catalog"]
        self.tiny = tiny
        self.load()

    def load(self) -> None:
        self.entries = catalog.load_catalog()
        self.refs = invariants.load_jones_refs()
        rows = list(enumerate(self.entries, start=1))
        self.items = rows[:4] if self.tiny else rows

    def run_item(self, item):
        row, entry = item
        return catalog.verify_entry(entry, row=row, refs=self.refs)

    def finish_pass(self):
        return catalog.summarize(catalog.main_rows(self.entries))

    def check_item(self, index: int, report) -> str | None:
        name, min_warp, size = self.expected["rows"][index]
        got = (report.name, report.computed_min_warp, report.witness_crossings)
        if got != (name, min_warp, size):
            return f"row {index + 1}: got {got}, pinned {(name, min_warp, size)}"
        if report.identification != name:
            return f"row {index + 1}: identified as {report.identification!r}"
        if not report.passed:
            return f"row {index + 1}: verify_entry reports FAIL {report.to_json()}"
        return None

    def check_pass(self, census, layers) -> list[str]:
        got = vars(census)
        if got != self.expected["census"]:
            return [f"census {got} != pinned {self.expected['census']}"]
        return []

    def counters(self, output) -> dict:
        return {}

    def cli_calls(self, outputs, out_path: Path):
        if self.tiny:
            return []
        argv = ["verify-catalog", "--json", str(out_path)]

        def check(code, stdout):
            payload = json.loads(out_path.read_text())
            want = [json.loads(r.to_json()) for r in outputs]
            if code != 0 or payload["rows"] != want or not payload["pass"]:
                return f"verify-catalog exit {code}, rows match {payload['rows'] == want}"
            if payload["counts"] != self.expected["census"]:
                return f"verify-catalog census {payload['counts']}"
            return None

        return [(argv, check)]

    def describe(self) -> dict:
        sizes = Counter(len(entry.dt.entries) for _, entry in self.items)
        return {"rows": len(self.items), "witness_crossings": dict(sorted(sizes.items()))}


class ConjectureWorkload:
    """``a_min_warp(c)`` for c = 3..8, as ``rollercoaster conjecture --max 8``
    does."""

    name = "conjecture"

    def __init__(self, seed: int, tiny: bool = False, expected=None):
        self.expected = expected or EXPECTED["conjecture"]
        self.c_max = 5 if tiny else 8
        self.load()

    def load(self) -> None:
        self.items = list(range(3, self.c_max + 1))

    def run_item(self, c: int):
        return search.a_min_warp(c)

    def finish_pass(self):
        return None

    def check_item(self, index: int, output) -> str | None:
        c = self.items[index]
        value, witness = output
        got = [value, list(witness.entries)]
        want = [self.expected["values"][str(c)], self.expected["witnesses"][str(c)]]
        return None if got == want else f"c={c}: got {got}, pinned {want}"

    def check_pass(self, tail, layers) -> list[str]:
        if layers is None:
            return []
        got = {str(c): layers.get(f"search.enumerate_alternating.c{c}", {}).get("yields", 0)
               for c in self.items}
        want = {str(c): self.expected["classes"][str(c)] for c in self.items}
        return [] if got == want else [f"class counts {got} != pinned {want}"]

    def counters(self, output) -> dict:
        return {}

    def cli_calls(self, outputs, out_path: Path):
        argv = ["conjecture", "--max", str(self.c_max), "--json"]
        want = [
            {
                "crossings": c,
                "computed": value,
                "predicted": math.ceil(c / 4),
                "match": value == math.ceil(c / 4),
                "witness": list(witness.entries),
            }
            for c, (value, witness) in zip(self.items, outputs)
        ]

        def check(code, stdout):
            rows = json.loads(stdout)["rows"]
            if code != 0 or rows != want:
                return f"conjecture exit {code}, rows {rows}"
            return None

        return [(argv, check)]

    def describe(self) -> dict:
        return {"crossings": self.items}


def _is_knot(strands: int, letters: list[int]) -> bool:
    """True when the closure of the word is one component."""
    perm = list(range(strands))
    for idx in letters:
        perm[idx - 1], perm[idx] = perm[idx], perm[idx - 1]
    pos, steps = 0, 0
    while True:
        pos = perm[pos]
        steps += 1
        if pos == 0:
            return steps == strands


def _draw_letters(rng: random.Random, strands: int, length: int) -> list[int]:
    """Every generator once plus uniform extra letters, shuffled."""
    letters = list(range(1, strands))
    letters += [rng.randint(1, strands - 1) for _ in range(length - (strands - 1))]
    rng.shuffle(letters)
    return letters


def braid_shape(index: int, max_strands: int = 6, max_letters: int = 20) -> tuple[int, int]:
    """The (strands, letters) of the ``index``-th word of the acceptance
    criteria's sample.

    That sample is the package's ``random_positive_braid_knot(6, 20, seed)``
    for seeds 0..999: strands uniform in 2..6, letters uniform in
    strands-1..20, every generator at least once, all redrawn until the
    closure is a knot.  The same draw is repeated here with Python's
    ``random.Random(index)``, so the shapes follow that sample without
    calling the package.
    """
    rng = random.Random(index)
    while True:
        strands = rng.randint(2, max_strands)
        length = rng.randint(strands - 1, max_letters)
        if _is_knot(strands, _draw_letters(rng, strands, length)):
            return strands, length


def braid_words(seed: int, count: int):
    """Seeded positive braid words with knot closures, as (strands, text).

    Word ``i`` has the shape of the acceptance criteria's word ``i``
    (``braid_shape``), so every seed has the same shape histogram and the
    cost of a pass does not follow the seed.  The seed draws the letters
    the same way, redrawn until the closure is a knot.
    """
    rng = random.Random(seed)
    words = []
    for strands, length in map(braid_shape, range(count)):
        while True:
            letters = _draw_letters(rng, strands, length)
            if _is_knot(strands, letters):
                break
        words.append((strands, " ".join(map(str, letters))))
    return words


class BraidWorkload:
    """Seeded positive braid words through the ``braid`` and ``warp`` paths."""

    name = "braid"

    def __init__(self, seed: int, tiny: bool = False, expected=None):
        self.seed = seed
        self.count = 20 if tiny else 1000
        self.load()

    def load(self) -> None:
        self.items = braid_words(self.seed, self.count)

    def run_item(self, item):
        _, text = item
        word = braid.parse_braid(text)
        counts = braid.ab_counts(word)
        unknotting = braid.positive_unknotting(word)
        gauss, _ = braid.closure_gauss(word)
        dt = codes.gauss_to_dt(gauss)
        degree = warp.min_warp(gauss).degree
        base, steps = braid.reduce_to_base(word)
        return word, counts, unknotting, dt, degree, base, steps

    def finish_pass(self):
        return None

    def check_item(self, index: int, output) -> str | None:
        strands, text = self.items[index]
        word, (a, b), unknotting, dt, degree, base, steps = output
        length = len(text.split())
        if word.strands != strands or len(word.letters) != length:
            return f"word {index}: parsed as {word.strands} strands, {len(word.letters)} letters"
        if a - b != strands - 1:
            return f"word {index}: a - b = {a - b}, want {strands - 1}"
        if not degree == unknotting == (length - strands + 1) // 2:
            return f"word {index}: min_warp {degree}, positive_unknotting {unknotting}"
        if sorted(abs(e) for e in dt.entries) != list(range(2, 2 * length + 1, 2)):
            return f"word {index}: closure DT {list(dt.entries)} is not a DT code of size {length}"
        counts = (a, b)
        for step in steps:
            if step.counts_before != counts:
                return f"word {index}: step starts at {step.counts_before}, previous ended at {counts}"
            drop = (1, 1) if step.action == "smooth" else (step.detail.m + 1, step.detail.m)
            counts = (counts[0] - drop[0], counts[1] - drop[1])
            if step.counts_after != counts:
                return f"word {index}: {step.action} gave {step.counts_after}, want {counts}"
        if counts != (base.strands - 1, 0) or len(base.letters) != base.strands - 1:
            return f"word {index}: base case {base} ends at {counts}"
        return None

    def check_pass(self, tail, layers) -> list[str]:
        return []

    def counters(self, output) -> dict:
        actions = Counter(step.action for step in output[6])
        return {"braid.steps.smooth": actions["smooth"], "braid.steps.remove": actions["remove"]}

    def cli_calls(self, outputs, out_path: Path):
        calls = []
        for (_, text), out in zip(self.items, outputs):
            base, steps = out[5], out[6]
            want_steps = [
                [s.action, list(s.counts_before), list(s.counts_after), str(s.word)] for s in steps
            ]
            want_final = {"a": base.strands - 1, "b": 0}

            def check(code, stdout, want_steps=want_steps, want_final=want_final):
                payload = json.loads(stdout)
                got = [
                    [s["action"], s["counts_before"], s["counts_after"], s["word"]]
                    for s in payload["steps"]
                ]
                if code != 0 or got != want_steps or payload["final"] != want_final:
                    return f"braid reduce exit {code}, payload {payload}"
                return None

            calls.append((["braid", "--word", text, "--json", "reduce"], check))
        return calls

    def describe(self) -> dict:
        """Strand and letter histograms of the words, next to those of the
        package's acceptance sample (seeds 0..count-1), which should match."""
        accepted = [braid.random_positive_braid_knot(6, 20, i) for i in range(self.count)]
        return {
            "words": len(self.items),
            "strands": _histogram(n for n, _ in self.items),
            "letters": _histogram(len(text.split()) for _, text in self.items),
            "acceptance_strands": _histogram(w.strands for w in accepted),
            "acceptance_letters": _histogram(len(w.letters) for w in accepted),
        }


def _histogram(values) -> dict:
    return dict(sorted(Counter(values).items()))


WORKLOADS = {w.name: w for w in (CatalogWorkload, ConjectureWorkload, BraidWorkload)}
