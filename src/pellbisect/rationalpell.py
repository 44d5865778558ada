"""Rational points on x^2 - d y^2 = (-1)^r: generation from representation
parameters with fractional prime-power scales, and the inverse decomposition
through denominator clearing."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, isqrt, lcm

from .arith import is_square
from .pellcore import PellContext
from .quadfield import QuadElem
from .solver import (
    Representation,
    Spectrum,
    _strict_core_modulus,
    _unit_exponent,
    decompose_square,
    evaluate_representation,
)
from .spectrum import xi


@dataclass(frozen=True)
class RationalPellPoint:
    d: int
    x: Fraction
    y: Fraction
    r: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", Fraction(self.x))
        object.__setattr__(self, "y", Fraction(self.y))
        if self.r not in (0, 1):
            raise ValueError("r must be 0 or 1")
        if self.x**2 - self.d * self.y**2 != (-1) ** self.r:
            raise ValueError(f"({self.x}, {self.y}) is not on x^2-{self.d}y^2 = (-1)^{self.r}")


def _parity_r(ctx: PellContext, rep: Representation) -> int:
    """Sign parity of the evaluated point: the unit exponent decides it when
    the negative Pell equation is integrally solvable, otherwise the total
    number of negative-norm fundamental factors does."""
    if ctx.neg_pell_integral:
        return rep.n % 2
    total = 0
    for t in rep.terms:
        entry = xi(ctx, t.p)
        assert entry is not None
        if entry.norm_sign == -1:
            total += t.exp
    if rep.core is not None:
        cx, cy = rep.core.x, rep.core.y
        if cx * cx - ctx.d * cy * cy < 0:
            total += 1
    return total % 2


def generate_rational(ctx: PellContext, spec: Spectrum, rep: Representation) -> RationalPellPoint:
    """Evaluate a representation scaled down to a point on x^2-dy^2 = +-1.

    The scale is implied by the terms: the core modulus of the representation
    must be a perfect square and is divided back out.
    """
    z_core = _strict_core_modulus(ctx, rep)
    if not is_square(z_core):
        raise ValueError(
            "parity violation: term exponents must give a square modulus "
            f"(got {z_core})"
        )
    root = isqrt(z_core)
    elem = evaluate_representation(replace(rep, scale=Fraction(1))) / root
    norm = elem.norm()
    assert abs(norm) == 1
    r = 0 if norm == 1 else 1
    assert r == _parity_r(ctx, rep)
    return RationalPellPoint(d=ctx.d, x=elem.a, y=elem.b, r=r)


def decompose_rational(ctx: PellContext, spec: Spectrum, pt: RationalPellPoint) -> Representation:
    """Clear denominators, factor the resulting square-modulus solution, and
    divide the scale back out; round-trips exactly through generate."""
    if pt.d != ctx.d:
        raise ValueError("point and context disagree on d")
    den = lcm(pt.x.denominator, pt.y.denominator)
    X = int(pt.x * den)
    Y = int(pt.y * den)
    g0 = gcd(gcd(X, Y), den)
    X, Y, den = X // g0, Y // g0, den // g0

    if den == 1:
        n, sign = _unit_exponent(ctx, QuadElem.from_int_pair(ctx.d, X, Y))
        rep = Representation(d=ctx.d, sign=sign, n=n)
    else:
        square_rep = decompose_square(ctx, spec, X, Y)
        rep = replace(square_rep, scale=square_rep.scale / den)
    assert evaluate_representation(rep) == QuadElem(ctx.d, pt.x, pt.y)
    return rep
