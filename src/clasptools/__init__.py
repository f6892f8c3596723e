"""Knot-link invariant toolkit: a skein-recursion HOMFLY engine (Conway and
p0 read off it), clasp-number-two models and obstructions, rational-tangle
and Montesinos calculus, and open-book fundamental-group classification.

``import clasptools`` loads no submodule.  Each public name imports its
submodule on first use (PEP 562), so a call pays only for the layers it
touches; a submodule's private names need ``import clasptools.<module>``.
"""

import importlib

_EXPORTS = {
    "census": ("load_census", "load_exceptional"),
    "clasp": ("ClaspParams", "conway_model", "enumerate_params", "kadokami_kawamura_excluded",
              "p0_model", "typeX_parity_obstruction", "typeX_sum_of_squares_search"),
    "diagram": ("Diagram", "DiagramError", "parse_pd"),
    "laurent": ("LaurentPoly", "extract_p_i"),
    "openbook": ("OpenBookTriple", "classify_triple", "s3_openbook_report", "todd_coxeter"),
    "skein": ("BudgetExceededError", "SkeinEngine"),
    "tangle": ("ExtendedRational", "MontesinosDesc", "closed_braid", "continued_fraction",
               "montesinos_diagram", "montesinos_equivalent", "pretzel_diagram", "theorem1_catalog"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module("." + _OWNER[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
