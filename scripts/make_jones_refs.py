"""Regenerate the packaged Jones reference table from the catalog witnesses.

Every polynomial is computed by this package's own bracket engine, so the
table is only as trustworthy as the cross-checks below:

- evaluation at t = 1 gives 1 for every row (unknot normalization);
- the determinant |V(-1)| is odd for every row;
- the span equals the crossing number for alternating rows and falls
  short of it for non-alternating rows;
- the five torus rows (3_1, 5_1, 7_1, 9_1, 8_19) agree with the closed
  form t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2)
  up to mirror image;
- the figure-eight row equals its hand-expanded bracket
  t^-2 - t^-1 + 1 - t + t^2;
- no two rows share a polynomial, even up to mirror image, so lookups
  by polynomial are unambiguous.

The checks raise SystemExit, so they also run under ``python -O``.

Run from the repository root:  python3 scripts/make_jones_refs.py

``table_text()`` returns the table without writing it; a tier-1 test
compares it byte for byte with the packaged file.
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rollercoaster import Laurent, jones, realize
from rollercoaster.catalog import load_catalog

OUT = pathlib.Path(__file__).resolve().parents[1] / "src" / "rollercoaster" / "data" / "jones_refs.dat"

TORUS = {"3_1": (2, 3), "5_1": (2, 5), "7_1": (2, 7), "9_1": (2, 9), "8_19": (3, 4)}

FIG8 = Laurent({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})


def torus_jones(p: int, q: int) -> Laurent:
    """Closed form for the (p, q) torus knot, in quarter powers of t."""
    shift = 4 * (p - 1) * (q - 1) // 2
    rem = {shift: 1, shift + 4 * (p + 1): -1, shift + 4 * (q + 1): -1, shift + 4 * (p + q): 1}
    quotient: dict[int, int] = {}
    # long division by 1 - t^2 (t^2 is 8 in quarter powers), top down
    for _ in range(1000):
        if not rem:
            return Laurent(quotient)
        lead = max(rem)
        c = rem.pop(lead)
        quotient[lead - 8] = quotient.get(lead - 8, 0) - c
        rem[lead - 8] = rem.get(lead - 8, 0) + c
        rem = {e: v for e, v in rem.items() if v}
    raise AssertionError(f"inexact division for T({p},{q})")


def table_text() -> str:
    """The reference table, one row per catalog witness, after the checks
    above pass."""
    entries = load_catalog()
    rows = []
    for entry in entries:
        poly = jones(realize(entry.dt))
        if poly.eval_at_unit(1) != 1:
            raise SystemExit(f"{entry.name}: V(1) != 1")
        det = abs(poly.eval_at_unit(-1))
        if det % 2 != 1:
            raise SystemExit(f"{entry.name}: even determinant {det}")
        span = poly.span()
        if entry.alternating and span != entry.minimal_crossings:
            raise SystemExit(f"{entry.name}: span {span} != crossing number {entry.minimal_crossings}")
        if not entry.alternating and span >= entry.minimal_crossings:
            raise SystemExit(f"{entry.name}: span {span} not below crossing number {entry.minimal_crossings}")
        mirrored = poly.mirror()
        for other_name, other, _ in rows:
            if other == poly or other == mirrored:
                raise SystemExit(f"{entry.name}: shares a polynomial with {other_name}")
        rows.append((entry.name, poly, len(entry.dt.entries)))

    for name, (p, q) in TORUS.items():
        expected = torus_jones(p, q)
        got = next(poly for n, poly, _ in rows if n == name)
        if got != expected and got != expected.mirror():
            raise SystemExit(f"{name}: torus form mismatch")
    got = next(poly for n, poly, _ in rows if n == "4_1")
    if got != FIG8:
        raise SystemExit("4_1: hand-expanded polynomial mismatch")

    lines = [
        "# Jones polynomials of the catalog witnesses, one row per knot.",
        "# Format: name; exp:coeff ...; note.  Exponents count quarter",
        "# powers of t, so every entry here is a multiple of four.",
        "# Generated by scripts/make_jones_refs.py from catalog.csv using",
        "# the package's own bracket engine; see that script for the",
        "# cross-checks (normalization, determinant parity, span, torus",
        "# closed forms, figure-eight hand expansion, pairwise",
        "# distinctness up to mirror image).",
    ]
    for name, poly, size in rows:
        terms = " ".join(f"{e}:{c}" for e, c in sorted(poly.coeffs.items()))
        lines.append(f"{name}; {terms}; from {size}-crossing witness")
    return "\n".join(lines) + "\n"


def main() -> int:
    # no options: --help prints usage and any argument exits 2, both before writing
    argparse.ArgumentParser(description=__doc__.partition("\n")[0]).parse_args()
    text = table_text()
    OUT.write_text(text)
    rows = sum(1 for line in text.split("\n") if line and not line.startswith("#"))
    print(f"wrote {rows} rows to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
