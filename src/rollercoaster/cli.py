"""Command-line surface over the warp, braid, catalog, and search modules.

Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
parse errors and on files that cannot be read or written.  Every
subcommand has a JSON mode with a stable schema.  Each handler imports
the engine modules it runs when it runs, so a command loads no other.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys


def _open_output(path: str | None, newline: str | None = None):
    """The output file opened for writing, so a bad path fails before the
    work starts; a null context when no path is given."""
    if path is None:
        return contextlib.nullcontext()
    if path == "-":
        raise ValueError("output path '-' is not supported: stdout carries the text output")
    return open(path, "w", encoding="utf-8", newline=newline)


def cmd_warp(args) -> int:
    from .codes import _read_lines, _read_text, _strip_comment, dt_to_gauss, mirror, parse_dt, parse_gauss
    from .warp import min_warp, warp_profile

    if args.dt is not None:
        gauss = dt_to_gauss(parse_dt(_read_text(args.dt) if args.dt == "-" else args.dt))
    else:
        lines = _read_lines(args.gauss)
        gauss = parse_gauss("\n".join(map(_strip_comment, lines)))
    if args.mirror:
        gauss = mirror(gauss)
    result = min_warp(gauss)
    payload = {
        "min_warp": result.degree,
        "basepoint": {"edge": result.base.edge, "forward": result.base.forward},
    }
    if args.all_basepoints:
        payload["profile_forward"] = warp_profile(gauss, forward=True)
        payload["profile_backward"] = warp_profile(gauss, forward=False)
    if args.json:
        print(json.dumps(payload))
        return 0
    print(f"min_warp: {result.degree}")
    print(f"basepoint: {result.base}")
    if args.all_basepoints:
        print(f"profile forward: {payload['profile_forward']}")
        print(f"profile backward: {payload['profile_backward']}")
    return 0


def cmd_braid(args) -> int:
    from . import braid as braid_mod
    from .codes import format_dt, gauss_to_dt

    # the library checks the knot closure, then positivity, before any
    # per-strand work; its ValueError exits 2
    word = braid_mod.parse_braid(args.word)
    op = args.operation
    if op == "counts":
        a, b = braid_mod.ab_counts(word)
        print(json.dumps({"a": a, "b": b}) if args.json else f"({a}, {b})")
        return 0
    if op == "unknotting":
        value = braid_mod.positive_unknotting(word)
        print(json.dumps({"positive_unknotting": value}) if args.json else str(value))
        return 0
    if op == "closure-dt":
        gauss, _ = braid_mod.closure_gauss(word)
        code = gauss_to_dt(gauss)
        print(json.dumps({"dt": list(code.entries)}) if args.json else format_dt(code))
        return 0
    # the word is checked before the JSON opener goes out, so a rejected
    # word prints nothing; each step goes out as the reduction makes it,
    # read off the live letter list, and no step's word is copied
    braid_mod._check_positive_knot(word)
    out = sys.stdout
    if args.json:
        out.write('{"steps": [')
        sep = ""

        def emit(action, detail, before, after, strands, letters):
            nonlocal sep
            step = {
                "action": action,
                "detail": str(detail),
                "counts_before": list(before),
                "counts_after": list(after),
                "word": braid_mod._format_letters(letters),
            }
            out.write(sep + json.dumps(step))
            sep = ", "
    else:
        def emit(action, detail, before, after, strands, letters):
            print(f"{action} {detail}: counts {before} -> {after}")
    strands = braid_mod._reduce(word, emit)[0].strands
    # the reduction stops at strands - 1 letters, where its closed form
    # (a, b) = ((c + n - 1)/2, (c - n + 1)/2) gives (strands - 1, 0)
    a, b = strands - 1, 0
    if args.json:
        out.write(f'], "final": {json.dumps({"a": a, "b": b})}}}\n')
    else:
        print(f"base case: counts ({a}, {b}) on {strands} strands")
    return 0


def cmd_verify_catalog(args) -> int:
    from .catalog import CatalogError, load_catalog, main_rows, summarize, verify_catalog
    from .invariants import load_jones_refs

    if args.catalog == args.refs == "-":
        raise ValueError("--catalog and --refs cannot both read stdin")
    try:
        entries = load_catalog(args.catalog)
    except CatalogError as exc:
        print(f"catalog verification failed: {exc}", file=sys.stderr)
        return 1
    refs = load_jones_refs(args.refs)
    with _open_output(args.json) as out:
        reports = verify_catalog(entries, refs=refs)
        failures = [r for r in reports if not r.passed]
        counts = summarize(main_rows(entries))
        if out is not None:
            payload = {
                "rows": [r.to_dict() for r in reports],
                "counts": {name: getattr(counts, name) for name in counts.__match_args__},
                "pass": not failures,
            }
            json.dump(payload, out, indent=2)
    for report in failures:
        print(f"FAIL {report.to_json()}")
    print(f"verified {len(reports)} rows, {len(failures)} failures")
    print(f"SRC={counts.src} RC={counts.rc} Neither={counts.neither} Unknown={counts.unknown}")
    return 1 if failures else 0


def cmd_conjecture(args) -> int:
    from .codes import format_dt
    from .search import _check_crossings, conjecture_report

    _check_crossings(args.max, "--max")
    rows = conjecture_report(args.max)
    if args.json:
        print(json.dumps({"rows": [
            {"crossings": r.crossings, "computed": r.computed, "predicted": r.predicted,
             "match": r.matches, "witness": list(r.witness.entries)}
            for r in rows
        ]}))
    else:
        for r in rows:
            status = "match" if r.matches else "MISMATCH"
            print(f"c={r.crossings} computed={r.computed} predicted={r.predicted} {status} "
                  f"witness={format_dt(r.witness)}")
    return 0 if all(r.matches for r in rows) else 1


def cmd_enumerate(args) -> int:
    import csv

    from .codes import format_dt
    from .search import _check_crossings, enumerate_alternating

    _check_crossings(args.crossings)  # before the CSV file is opened
    count = 0
    codes = []
    with _open_output(args.csv, newline="") as fh:
        writer = csv.writer(fh) if fh is not None else None
        if writer is not None:
            writer.writerow(["crossings", "dt"])
        # text and CSV rows go out as each class is found; only JSON needs the list
        for code in enumerate_alternating(args.crossings):
            count += 1
            if writer is not None:
                writer.writerow([args.crossings, format_dt(code)])
            if args.json:
                codes.append(list(code.entries))
            else:
                print(format_dt(code), flush=True)
    if args.json:
        print(json.dumps({"crossings": args.crossings, "codes": codes}))
    else:
        print(f"{count} diagrams at c={args.crossings}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rollercoaster")
    sub = parser.add_subparsers(dest="command", required=True)

    p_warp = sub.add_parser("warp", help="minimum warping degree of a diagram")
    group = p_warp.add_mutually_exclusive_group(required=True)
    group.add_argument("--dt", help="bracketed DT code, or - for stdin")
    group.add_argument("--gauss", help="file of signed crossing ids (positive = over), or -")
    p_warp.add_argument("--all-basepoints", action="store_true")
    p_warp.add_argument("--mirror", action="store_true")
    p_warp.add_argument("--json", action="store_true")
    p_warp.set_defaults(func=cmd_warp)

    p_braid = sub.add_parser("braid", help="positive braid closures and reductions")
    p_braid.add_argument("--word", required=True, help='letters like "1 2 -1" or "s1 s2^3"')
    p_braid.add_argument("--json", action="store_true")
    p_braid.add_argument(
        "operation", choices=["counts", "unknotting", "closure-dt", "reduce"]
    )
    p_braid.set_defaults(func=cmd_braid)

    p_verify = sub.add_parser("verify-catalog", help="recheck every table row")
    p_verify.add_argument("--catalog", help="CSV path, or - for stdin; defaults to the packaged table")
    p_verify.add_argument("--refs", help="reference polynomial path, or -; defaults to packaged")
    p_verify.add_argument("--json", metavar="OUT", help="write the full report as JSON")
    p_verify.set_defaults(func=cmd_verify_catalog)

    p_conj = sub.add_parser("conjecture", help="diagram-level minimum warping vs ceil(c/4)")
    p_conj.add_argument("--max", type=int, required=True)
    p_conj.add_argument("--json", action="store_true")
    p_conj.set_defaults(func=cmd_conjecture)

    p_enum = sub.add_parser("enumerate", help="reduced alternating diagrams at fixed size")
    p_enum.add_argument("--crossings", type=int, required=True)
    p_enum.add_argument("--csv", metavar="OUT")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse (seen on Python 3.11) turns a lone "--" value, as in --dt=--, into []
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument --{name}: expected one argument")
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
