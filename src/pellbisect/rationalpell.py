"""Rational points on x^2 - d y^2 = (-1)^r: generation from representation
parameters with fractional prime-power scales, and the inverse decomposition
through denominator clearing."""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt, lcm

from .arith import is_square
from .pellcore import PellContext
from .solver import Representation, Spectrum, _decompose_scaled, evaluate_representation
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
    """Sign parity of the evaluated point, one factor at a time: eta^n when
    N(eta) = -1, each negative-norm xi_p^exp, and a negative-norm core."""
    r = rep.n if ctx.norm_eta == -1 else 0
    r += sum(t.exp for t in rep.terms if xi(ctx, t.p).norm_sign == -1)
    if rep.core is not None and rep.core.x**2 - ctx.d * rep.core.y**2 < 0:
        r += 1
    return r % 2


def generate_rational(ctx: PellContext, spec: Spectrum, rep: Representation) -> RationalPellPoint:
    """Evaluate a representation scaled down to a point on x^2-dy^2 = +-1.

    The scale is implied by the terms: the norm of the unscaled element must
    be a perfect square and its root is divided back out.
    """
    elem = evaluate_representation(replace(rep, scale=Fraction(1)))
    norm = elem.norm()
    z_core = abs(norm)
    if z_core.denominator != 1 or not is_square(z_core.numerator):
        raise ValueError(
            "parity violation: term exponents must give a square modulus "
            f"(got {z_core})"
        )
    elem = elem / isqrt(z_core.numerator)
    r = 0 if norm > 0 else 1
    assert r == _parity_r(ctx, rep)
    return RationalPellPoint(d=ctx.d, x=elem.a, y=elem.b, r=r)


def decompose_rational(ctx: PellContext, spec: Spectrum, pt: RationalPellPoint) -> Representation:
    """Clear denominators and factor the resulting solution, then divide the
    scale back out; round-trips exactly through generate.

    With den the least common denominator, x = X/den and y = Y/den in lowest
    terms give gcd(X, Y, den) = 1, and X^2 - d Y^2 = +-den^2 then forces
    gcd(X, d Y) = 1: the cleared point is strictly primitive.
    """
    if pt.d != ctx.d:
        raise ValueError("point and context disagree on d")
    den = lcm(pt.x.denominator, pt.y.denominator)
    return _decompose_scaled(ctx, spec, int(pt.x * den), int(pt.y * den), Fraction(1, den))
