"""Exact arithmetic toolkit for Pell-type equations |x^2 - d y^2| = z and
rational angle bisectors.

The field core (arith, quadfield, pellcore) loads with the package; each
name from solver, rationalpell, bisector and oracle loads its module on first
use."""

from importlib import import_module

from .pellcore import (CFExpansion, PellContext, Spectrum, XiEntry, XiEntryError, class_number,
                       continued_fraction_sqrt, in_s, make_context, neg_pell_rational, pell_sequence, spectrum,
                       splits, xi)
from .quadfield import FieldMismatchError, InvariantError, NotSquareFreeError, QuadElem, exact_div, render

_LAZY = {
    "bisector": ("BisectorTriple", "NoRationalBisector", "PairClassification", "TrivialPairError",
                 "bisect", "case1_generate", "case2_alphas", "case2_generate", "classify_pair", "from_pell_points",
                 "integral_generate", "integral_generate2", "verify_star"),
    "oracle": ("SearchBox", "brute_rational_pell", "brute_solutions", "brute_xi", "tangent_bisector_check"),
    "rationalpell": ("RationalPellPoint", "decompose_rational", "generate_rational", "rational_family"),
    "solver": ("CoreFactor", "ExistenceVerdict", "Representation", "XiPower", "decompose", "decompose_square",
               "decompose_strict", "evaluate_representation", "generate_strict", "solve", "strict_exists",
               "validate_representation"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = ["CFExpansion", "PellContext", "class_number", "continued_fraction_sqrt", "make_context",
           "neg_pell_rational", "pell_sequence", "splits", "FieldMismatchError", "InvariantError",
           "NotSquareFreeError", "QuadElem", "exact_div", "render", "Spectrum", "XiEntry", "XiEntryError",
           "in_s", "spectrum", "xi", *_HOME]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups no longer reach this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
