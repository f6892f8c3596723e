"""Knot-link invariant toolkit: a skein-recursion HOMFLY engine (Conway and
p0 read off it), clasp-number-two models and obstructions, rational-tangle
and Montesinos calculus, and open-book fundamental-group classification."""

from .census import load_census, load_exceptional
from .clasp import (
    ClaspParams,
    conway_model,
    enumerate_params,
    kadokami_kawamura_excluded,
    p0_model,
    typeX_parity_obstruction,
    typeX_sum_of_squares_search,
)
from .diagram import Diagram, DiagramError, parse_pd
from .laurent import LaurentPoly, extract_p_i
from .openbook import OpenBookTriple, classify_triple, s3_openbook_report, todd_coxeter
from .skein import BudgetExceededError, SkeinEngine
from .tangle import (
    ExtendedRational,
    MontesinosDesc,
    closed_braid,
    continued_fraction,
    montesinos_diagram,
    montesinos_equivalent,
    pretzel_diagram,
    theorem1_catalog,
    two_bridge_diagram,
)

__all__ = [
    "BudgetExceededError",
    "ClaspParams",
    "Diagram",
    "DiagramError",
    "ExtendedRational",
    "LaurentPoly",
    "MontesinosDesc",
    "OpenBookTriple",
    "SkeinEngine",
    "classify_triple",
    "closed_braid",
    "continued_fraction",
    "conway_model",
    "enumerate_params",
    "extract_p_i",
    "kadokami_kawamura_excluded",
    "load_census",
    "load_exceptional",
    "montesinos_diagram",
    "montesinos_equivalent",
    "p0_model",
    "parse_pd",
    "pretzel_diagram",
    "s3_openbook_report",
    "theorem1_catalog",
    "todd_coxeter",
    "two_bridge_diagram",
    "typeX_parity_obstruction",
    "typeX_sum_of_squares_search",
]
