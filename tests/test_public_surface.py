import importlib
import pkgutil

import rollercoaster
from rollercoaster.braid import ReductionStep
from rollercoaster.catalog import CatalogEntry, ClassCounts, RCCrossing, Range, RowReport
from rollercoaster.search import ConjectureRow

PUBLIC = [
    "Basepoint",
    "Bigon",
    "BracketCapExceeded",
    "BraidWord",
    "Crossing",
    "DTCode",
    "FramingError",
    "GaussCode",
    "Laurent",
    "NotRealizable",
    "PlanarDiagram",
    "RemovalCertificate",
    "WarpResult",
    "ab_counts",
    "apply_roller_coaster",
    "closure_components",
    "closure_gauss",
    "dt_to_gauss",
    "extract_dt",
    "extract_gauss",
    "gauss_to_dt",
    "is_realizable",
    "is_reduced",
    "jones",
    "kauffman_bracket",
    "load_jones_refs",
    "match_jones",
    "min_warp",
    "mirror",
    "parse_braid",
    "parse_dt",
    "parse_gauss",
    "pd_from_braid",
    "positive_unknotting",
    "random_positive_braid_knot",
    "realize",
    "reduce_to_base",
    "warp_from",
    "warp_profile",
    "writhe",
]

# the fields of the public records and named tuples, in order; those of the
# catalog and conjecture records are also the key order of their JSON output
FIELDS = {
    "Basepoint": ("edge", "forward"),
    "Bigon": ("i", "j", "strands"),
    "BraidWord": ("strands", "letters"),
    "CatalogEntry": (
        "name", "alternating", "unknotting", "ascending", "lower_bound", "property", "dt", "rc_crossing",
    ),
    "ClassCounts": ("src", "rc", "neither", "unknown"),
    "ConjectureRow": ("crossings", "computed", "predicted", "witness"),
    "Crossing": ("edges", "over", "sign"),
    "DTCode": ("entries",),
    "GaussCode": ("passages",),
    "PlanarDiagram": ("crossings",),
    "RCCrossing": ("value", "at_least"),
    "Range": ("lo", "hi"),
    "ReductionStep": ("action", "detail", "counts_before", "counts_after", "word"),
    "RemovalCertificate": ("crossing", "strand", "m"),
    "RowReport": (
        "row", "name", "computed_min_warp", "expected", "witness_crossings", "rc_crossing", "identification",
        "checks",
    ),
    "WarpResult": ("base", "below"),
}

# the checked and brute-force helpers that live in tests/oracles.py (dt_mirror is gone)
TEST_ONLY = [
    "rotate",
    "reverse",
    "dt_mirror",
    "canonical_dt",
    "dt_relabellings",
    "find_innermost_bigon",
    "smooth_bigon",
    "remove_first_ascending_strand",
]


def test_public_surface_is_pinned():
    assert sorted(rollercoaster.__all__) == PUBLIC
    assert all(hasattr(rollercoaster, name) for name in rollercoaster.__all__)
    # every module of the package but __main__, which runs the CLI on import
    names = sorted(m.name for m in pkgutil.iter_modules(rollercoaster.__path__) if m.name != "__main__")
    assert names == ["braid", "catalog", "cli", "codes", "embed", "invariants", "search", "warp"]
    for module in [rollercoaster] + [importlib.import_module(f"rollercoaster.{name}") for name in names]:
        assert [name for name in TEST_ONLY if hasattr(module, name)] == [], module.__name__


def _fields(cls):
    # records and named tuples alike keep their field names here
    return getattr(cls, "__match_args__", None)


def test_public_record_fields_are_pinned():
    public = {name: getattr(rollercoaster, name) for name in rollercoaster.__all__}
    for cls in (ReductionStep, CatalogEntry, ClassCounts, ConjectureRow, RCCrossing, Range, RowReport):
        public[cls.__name__] = cls
    records = {name: _fields(cls) for name, cls in public.items() if isinstance(cls, type) and _fields(cls)}
    assert records == FIELDS


def test_laurent_public_attributes_are_pinned():
    # the operations the package uses; dropping or adding one changes the public surface
    public = sorted(name for name in dir(rollercoaster.Laurent) if not name.startswith("_"))
    assert public == ["coeffs", "eval_at_unit", "mirror", "span"]
