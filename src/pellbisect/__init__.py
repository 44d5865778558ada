"""Exact arithmetic toolkit for Pell-type equations |x^2 - d y^2| = z and
rational angle bisectors."""

from .bisector import (
    BisectorTriple,
    NoRationalBisector,
    PairClassification,
    TrivialPairError,
    bisect,
    case1_generate,
    case2_generate,
    classify_pair,
    from_pell_points,
    integral_generate,
    integral_generate2,
    verify_star,
)
from .oracle import SearchBox, brute_rational_pell, brute_solutions, brute_xi, tangent_bisector_check
from .pellcore import (
    CFExpansion,
    PellContext,
    class_number,
    continued_fraction_sqrt,
    make_context,
    neg_pell_rational,
    pell_sequence,
    splits,
)
from .quadfield import (
    FieldMismatchError,
    NotSquareFreeError,
    QuadElem,
    RingTag,
    exact_div,
    in_ring,
    render,
)
from .rationalpell import RationalPellPoint, decompose_rational, generate_rational
from .solver import (
    CoreFactor,
    ExistenceVerdict,
    Representation,
    XiPower,
    decompose_square,
    decompose_strict,
    evaluate_representation,
    generate_strict,
    strict_exists,
    validate_representation,
)
from .spectrum import Spectrum, XiEntry, in_s, spectrum, xi

__version__ = "0.1.0"
