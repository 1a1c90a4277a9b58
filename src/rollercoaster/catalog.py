"""Knot table ingestion and row-by-row verification.

The shipped ``catalog.csv`` lists one row per knot: name, alternating flag,
unknotting-number range, ascending-number range, the source of the lower
bound, the property class, a DT witness diagram, and the smallest diagram
size on which the minimum warping degree is known to reach the ascending
number (the "rc-crossing" column).

Ranges are encoded ``lo..hi`` (a bare integer means a point range).  The
rc-crossing column admits three forms: a plain integer, ``12+`` (at least
twelve), and ``{c, 12+}`` (equal to c if the ascending number sits at the
top of its range, at least twelve otherwise).
"""

from __future__ import annotations

import csv
import enum
import json
import re
from collections import Counter

from .codes import _BLANK, _INTEGER, DTCode, _Record, _check_int, _read_lines, _unchecked, dt_to_gauss, parse_dt
from .embed import NotRealizable, realize
from .invariants import BracketCapExceeded, jones, match_jones
from .warp import min_warp


class CatalogError(ValueError):
    """Raised when a catalog file violates the row schema."""


class LowerBoundSource(enum.Enum):
    UNKNOTTING_NUMBER = "UnknottingNumber"
    TWIST_KNOT_THEOREM = "TwistKnotTheorem"
    CONWAY_BOUND = "ConwayBound"


class PropertyClass(enum.Enum):
    SRC = "SRC"
    RC = "RC"
    NEITHER = "Neither"
    UNKNOWN = "Unknown"


class Range(_Record):
    lo: int
    hi: int

    def __post_init__(self):
        for bound in (self.lo, self.hi):
            _check_int(bound, "range bounds must be integers, got {!r}")
        if self.lo < 0 or self.hi < 0:
            raise CatalogError(f"negative bound in range {self.lo}..{self.hi}")
        if self.lo > self.hi:
            raise CatalogError(f"empty range [{self.lo}, {self.hi}]")

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @classmethod
    def parse(cls, text: str) -> "Range":
        text = text.strip(_BLANK)
        bounds = [bound.strip(_BLANK) for bound in text.split("..", 1)]
        if not all(_INTEGER.fullmatch(bound) for bound in bounds):
            raise CatalogError(f"bad range {text!r}")
        return cls(int(bounds[0]), int(bounds[-1]))

    def __str__(self):
        return str(self.lo) if self.is_point else f"{self.lo}..{self.hi}"


# "9", "12+" or the conditional "{9, 12+}"
_RC_CROSSING = re.compile(r"([0-9]+)(\+?)|\{([0-9]+),[%s]*([0-9]+)\+\}" % _BLANK)


class RCCrossing(_Record):
    """Diagram size realizing the ascending number.

    ``value`` is the finite size when one is known, ``at_least`` a lower
    bound that applies instead when the ascending number falls below the
    top of its range.  Exactly one is set for unconditional entries; both
    are set for the conditional ``{c, 12+}`` form.
    """

    value: int | None
    at_least: int | None

    def __post_init__(self):
        if self.value is None and self.at_least is None:
            raise CatalogError("rc-crossing needs a value or a bound")
        for size in (self.value, self.at_least):
            if size is not None:
                _check_int(size, "rc-crossing sizes must be integers, got {!r}")
                if size < 0:
                    raise CatalogError(f"negative rc-crossing size {size}")

    @classmethod
    def parse(cls, text: str) -> "RCCrossing":
        text = text.strip(_BLANK)
        m = _RC_CROSSING.fullmatch(text)
        if not m:
            raise CatalogError(f"bad rc-crossing {text!r}")
        size, plus, value, at_least = m.groups()
        if size is None:
            return cls(int(value), int(at_least))
        return cls(None, int(size)) if plus else cls(int(size), None)

    def __str__(self):
        if self.value is not None and self.at_least is not None:
            return f"{{{self.value}, {self.at_least}+}}"
        if self.value is not None:
            return str(self.value)
        return f"{self.at_least}+"


_NAME = re.compile(r"([0-9]+)[a-z]?_[0-9]+")


class CatalogEntry(_Record):
    name: str
    alternating: bool
    unknotting: Range
    ascending: Range
    lower_bound: LowerBoundSource
    property: PropertyClass
    dt: DTCode
    rc_crossing: RCCrossing

    def __post_init__(self):
        if not _NAME.fullmatch(self.name):
            raise CatalogError(f"bad knot name {self.name!r}")
        if self.ascending.lo < self.unknotting.lo:
            raise CatalogError(f"{self.name}: ascending range below unknotting range")
        columns = classify(self)
        if columns is not self.property:
            raise CatalogError(f"stored property {self.property.value} but columns give {columns.value}")

    @property
    def minimal_crossings(self) -> int:
        return int(_NAME.fullmatch(self.name).group(1))


def classify(entry: CatalogEntry) -> PropertyClass:
    """Recompute the property class from the numeric columns alone."""
    u, a = entry.unknotting, entry.ascending
    if u.is_point and a.is_point and u.lo == a.lo:
        rc = entry.rc_crossing
        if rc.value == entry.minimal_crossings and rc.at_least is None:
            return PropertyClass.SRC
        return PropertyClass.RC
    if a.lo > u.hi:
        return PropertyClass.NEITHER
    return PropertyClass.UNKNOWN


def load_catalog(path=None) -> tuple[CatalogEntry, ...]:
    """Parse the shipped table (or a file at ``path``, ``-`` for stdin)
    into validated entries, each knot named once."""
    entries: dict[str, CatalogEntry] = {}  # by name, in row order
    reader = csv.DictReader(_read_lines(path, "catalog.csv"))
    columns = CatalogEntry.__match_args__
    try:
        header = reader.fieldnames
    except csv.Error as exc:
        raise CatalogError(f"header: {exc}") from exc
    if sorted(header or ()) != sorted(columns):
        raise CatalogError(f"header: expected {','.join(columns)}")
    for row in _rows(reader):
        lineno = reader.line_num  # the row's physical line: DictReader skips blank lines
        # DictReader fills missing fields with None and files extra ones under None
        if None in row or None in row.values():
            raise CatalogError(f"row {lineno}: expected {len(reader.fieldnames)} fields as in the header")
        try:
            entry = CatalogEntry(
                name=row["name"],
                alternating={"Y": True, "N": False}[row["alternating"]],
                unknotting=Range.parse(row["unknotting"]),
                ascending=Range.parse(row["ascending"]),
                lower_bound=LowerBoundSource(row["lower_bound"]),
                property=PropertyClass(row["property"]),
                dt=parse_dt(row["dt"]),
                rc_crossing=RCCrossing.parse(row["rc_crossing"]),
            )
        except (KeyError, ValueError) as exc:
            raise CatalogError(f"row {lineno}: {exc}") from exc
        if entries.setdefault(entry.name, entry) is not entry:
            raise CatalogError(f"row {lineno}: duplicate knot name {entry.name}")
    return tuple(entries.values())


def _rows(reader):
    """The rows of ``reader``, with the csv module's own error on a row (a
    field over its size limit, say) raised as a CatalogError naming the
    line.  The size limit is process-wide, so it stays as it is."""
    try:
        yield from reader
    except csv.Error as exc:
        # a DictReader copies its line count only from a row it completes
        raise CatalogError(f"row {reader.reader.line_num}: {exc}") from exc


def main_rows(entries) -> tuple[CatalogEntry, ...]:
    """The classification universe: every knot with at most nine crossings."""
    return tuple(e for e in entries if e.minimal_crossings <= 9)


class ClassCounts(_Record):
    src: int
    rc: int
    neither: int
    unknown: int


def summarize(entries) -> ClassCounts:
    counts = Counter(entry.property for entry in entries)
    # the fields follow the order of PropertyClass
    return ClassCounts(*[counts[cls] for cls in PropertyClass])


class RowReport(_Record):
    row: int
    name: str
    computed_min_warp: int
    expected: int
    witness_crossings: int
    rc_crossing: str
    identification: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_dict(self) -> dict:
        fields = {name: getattr(self, name) for name in self.__match_args__}
        return {**fields, "checks": [{"name": n, "pass": ok} for n, ok in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def verify_entry(entry: CatalogEntry, row: int = 0, *, refs) -> RowReport:
    """Re-derive a row's claims from its DT witness.

    Three checks: the minimum warping degree over all basepoints equals the
    top of the ascending range; the witness size matches the finite branch
    of the rc-crossing column; and the witness's polynomial identifies the
    named knot among ``refs`` (mirror images share a name).  The row's
    identification is the one matching name, ``none``, or ``ambiguous: ``
    and the matching names.  A witness that cannot be embedded, or has a
    bracket frontier wider than 16 open edges, fails the identification
    check instead of aborting the run.  An empty witness is checked as a
    crossingless diagram of warping degree 0.
    """
    # min_warp needs a basepoint, which a crossingless witness lacks
    degree = min_warp(dt_to_gauss(entry.dt)).degree if entry.dt.entries else 0
    size = len(entry.dt.entries)
    try:
        names = match_jones(jones(realize(entry.dt)), refs)
        identification = ", ".join(names) or "none"
        if len(names) > 1:
            identification = "ambiguous: " + identification
    except NotRealizable as exc:
        identification = f"not realizable: {exc}"
    except BracketCapExceeded as exc:
        identification = f"over cap: {exc}"
    checks = (
        ("min_warp", degree == entry.ascending.hi),
        ("witness_size", entry.rc_crossing.value is None or size == entry.rc_crossing.value),
        ("identification", identification == entry.name),
    )
    # every field is computed here: RowReport has no checks to skip
    return _unchecked(RowReport, row=row, name=entry.name, computed_min_warp=degree, expected=entry.ascending.hi,
                      witness_crossings=size, rc_crossing=str(entry.rc_crossing), identification=identification,
                      checks=checks)


def verify_catalog(entries, refs) -> list[RowReport]:
    return [verify_entry(entry, row=i, refs=refs) for i, entry in enumerate(entries, start=1)]
