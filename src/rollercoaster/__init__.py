"""Warping degrees, ascending numbers, and positive braid reductions.

Each public name is stated once, in ``_HOME``, beside the module that
defines it.  That module is imported the first time the name is read
(PEP 562), so ``import rollercoaster`` loads no engine module and a
command loads only the modules it runs.  Nothing is cached here: every
read goes to the defining module, so a function patched there, and
restored, is seen as it stands.
"""

import importlib

_HOME = {
    name: module
    for module, names in [
        ("codes", "Basepoint DTCode FramingError GaussCode dt_to_gauss gauss_to_dt is_reduced mirror parse_dt "
                  "parse_gauss"),
        ("warp", "WarpResult apply_roller_coaster min_warp warp_from warp_profile"),
        ("braid", "Bigon BraidWord RemovalCertificate ab_counts closure_components closure_gauss parse_braid "
                  "positive_unknotting random_positive_braid_knot reduce_to_base"),
        ("embed", "Crossing NotRealizable PlanarDiagram extract_dt extract_gauss is_realizable pd_from_braid "
                  "realize writhe"),
        ("invariants", "BracketCapExceeded Laurent jones kauffman_bracket load_jones_refs match_jones "
                       "parse_jones_refs"),
    ]
    for name in names.split()
}
__all__ = sorted(_HOME)


def __getattr__(name):
    # a submodule name raises here too; the import system then loads it
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
