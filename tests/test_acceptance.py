"""End-to-end checks, one per shipped claim, each printing a verdict line.

Run with ``pytest -v tests/test_acceptance.py``; the per-criterion lines
are echoed in a terminal summary section at the end of the run.
"""

import time

import pytest

from rollercoaster import (
    ab_counts,
    apply_roller_coaster,
    closure_gauss,
    dt_to_gauss,
    min_warp,
    mirror,
    parse_dt,
    random_positive_braid_knot,
    realize,
    reduce_to_base,
    warp_from,
    warp_profile,
)
from rollercoaster.catalog import load_catalog, main_rows, summarize
from rollercoaster.codes import Basepoint
from rollercoaster.invariants import jones, kauffman_bracket, load_jones_refs, match_jones
from rollercoaster.search import conjecture_report

from oracles import skein_bracket

RESULTS = []


def record(number: int, title: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"criterion {number:2d} {verdict} {title}{suffix}"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


@pytest.fixture(scope="module")
def sample_words():
    words = []
    for seed in range(1000):
        words.append(random_positive_braid_knot(6, 20, seed=seed))
    return words


def test_criterion_1_table_reproduction(catalog):
    start = time.monotonic()
    rows = main_rows(catalog)
    bad = []
    for entry in rows:
        degree = min_warp(dt_to_gauss(entry.dt)).degree
        if degree != entry.ascending.hi:
            bad.append((entry.name, "warp"))
        finite = entry.rc_crossing.value
        if finite is not None and len(entry.dt.entries) != finite:
            bad.append((entry.name, "size"))
    elapsed = time.monotonic() - start
    record(
        1,
        "catalog reproduction on all 84 rows",
        len(rows) == 84 and not bad and elapsed < 10,
        f"{len(rows)} rows, {elapsed:.1f}s" + (f", failures {bad}" if bad else ""),
    )


def test_criterion_2_improved_upper_bounds(catalog):
    entries = {e.name: e for e in catalog}
    values = {}
    for name in ("9_32", "9_33", "9_40"):
        entry = entries[name]
        values[name] = (min_warp(dt_to_gauss(entry.dt)).degree, len(entry.dt.entries))
    ok = (
        values["9_32"] == (2, 11)
        and values["9_33"] == (2, 11)
        and values["9_40"] == (3, 11)
    )
    record(2, "11-crossing witnesses for 9_32, 9_33, 9_40", ok, str(values))


def test_criterion_3_classification_counts(catalog):
    counts = summarize(main_rows(catalog))
    ok = (counts.src, counts.rc, counts.neither, counts.unknown) == (12, 32, 34, 6)
    record(
        3,
        "classification counts (12, 32, 34, 6)",
        ok,
        f"SRC={counts.src} RC={counts.rc} Neither={counts.neither} Unknown={counts.unknown}",
    )


def test_criterion_4_twelve_crossing_witnesses():
    first = min_warp(dt_to_gauss(parse_dt("[8,6,16,10,24,14,20,18,4,22,12,2]"))).degree
    second = min_warp(dt_to_gauss(parse_dt("[14,24,22,20,6,4,2,12,10,8,18,16]"))).degree
    record(4, "12-crossing witnesses give 3", first == 3 and second == 3,
           f"got {first} and {second}")


def test_criterion_5_positive_braid_identities(sample_words):
    start = time.monotonic()
    bad = 0
    for word in sample_words:
        a, b = ab_counts(word)
        n, c = word.strands, len(word.letters)
        gauss, _ = closure_gauss(word)
        if a - b != n - 1 or min_warp(gauss).degree != (c - n + 1) // 2:
            bad += 1
    elapsed = time.monotonic() - start
    record(
        5,
        "count identity and unknotting formula on 1000 random positive braid knots",
        bad == 0 and elapsed < 30,
        f"{len(sample_words)} words, {elapsed:.1f}s",
    )


def test_criterion_6_induction_steps(sample_words):
    bad = 0
    checked = 0
    for word in sample_words[:300]:
        base, steps = reduce_to_base(word)
        # the reduction takes its counts from (c, n); recount them on every word
        if steps and steps[0].counts_before != ab_counts(word):
            bad += 1
        for step in steps:
            a, b = step.counts_before
            a2, b2 = step.counts_after
            if step.action == "smooth":
                ok = (a2, b2) == (a - 1, b - 1)
            else:
                ok = (a2, b2) == (a - step.detail.m - 1, b - step.detail.m)
            checked += 1
            if not ok or step.counts_after != ab_counts(step.word):
                bad += 1
        if ab_counts(base) != (base.strands - 1, 0):
            bad += 1
    record(
        6,
        "bigon and strand-removal identities down to the base case",
        bad == 0,
        f"{checked} induction steps over 300 words",
    )


def test_criterion_7_warping_properties(catalog, sample_words):
    codes = [dt_to_gauss(entry.dt) for entry in catalog]
    codes += [closure_gauss(word)[0] for word in sample_words]
    bad = 0
    for gauss in codes:
        c = len(gauss.passages) // 2
        flipped = mirror(gauss)
        forward = warp_profile(gauss, forward=True)
        for edge in range(2 * c):
            base = Basepoint(edge)
            if warp_from(gauss, base).degree + warp_from(flipped, base).degree != c:
                bad += 1
            if abs(forward[edge] - forward[(edge + 1) % (2 * c)]) > 1:
                bad += 1
        changed = apply_roller_coaster(gauss, Basepoint(0))
        if warp_from(changed, Basepoint(0)).degree != 0:
            bad += 1
    record(
        7,
        "complement, adjacency, and descending fixed point",
        bad == 0,
        f"{len(codes)} diagrams",
    )


def test_criterion_8_invariant_oracles(catalog):
    refs = load_jones_refs()
    mismatches = []
    for entry in catalog:
        if len(entry.dt.entries) <= 8:
            diagram = realize(entry.dt)
            if kauffman_bracket(diagram) != skein_bracket(diagram):
                mismatches.append((entry.name, "bracket"))
    collisions = []
    wrong = []
    for entry in catalog:
        names = match_jones(refs[entry.name], refs)
        if names != [entry.name]:
            collisions.append((entry.name, names))
        found = match_jones(jones(realize(entry.dt)), refs)
        if found != [entry.name]:
            wrong.append((entry.name, found))
    ok = not mismatches and not collisions and not wrong
    record(
        8,
        "frontier contraction vs skein recursion and catalog identification",
        ok,
        f"collisions {collisions}" if collisions else "no Jones collisions",
    )


def test_criterion_9_conjecture_desk_scale():
    start = time.monotonic()
    rows = conjecture_report(8)
    elapsed = time.monotonic() - start
    values = [r.computed for r in rows]
    ok = values == [1, 1, 2, 2, 2, 2] and all(r.matches for r in rows) and elapsed < 300
    record(9, "minimum warping over alternating diagrams matches ceil(c/4) for c=3..8",
           ok, f"values {values}, {elapsed:.1f}s")


def test_criterion_10_out_of_scope_statement():
    statement = (
        "not reproduced at desk scale: the exhaustive search over all "
        "diagrams with up to 11 crossings per knot, the 16-crossing "
        "conjecture sweep, and braid-index certification; replaced by "
        "witness verification and the property suites above"
    )
    record(10, statement, True)
