"""Rational angle bisectors of two origin lines with rational slopes.

The slopes a, b of the lines and the slope c of an angle bisector satisfy
(a-c)^2 (b^2+1) = (b-c)^2 (a^2+1); everything here produces or checks exact
rational solutions of that equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from .arith import factorize
from .pellcore import PellContext
from .quadfield import InvariantError, QuadElem


class NoRationalBisector(ValueError):
    """The bisectors of the given slope pair have irrational slopes."""


class TrivialPairError(ValueError):
    """|a| = |b|: the bisector directions are axis-aligned or degenerate."""


def verify_star(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact check of (a-c)^2 (b^2+1) == (b-c)^2 (a^2+1) on numerators: with a = an/ad
    and so on, both sides share the denominator (ad*bd*cd)^2."""
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (an * cd - cn * ad) ** 2 * (bn * bn + bd * bd) == (bn * cd - cn * bd) ** 2 * (an * an + ad * ad)


@dataclass(frozen=True)
class BisectorTriple:
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            if type(getattr(self, name)) is not Fraction:
                object.__setattr__(self, name, Fraction(getattr(self, name)))
        if not verify_star(self.a, self.b, self.c):
            raise ValueError(f"({self.a}, {self.b}, {self.c}) is not a bisector triple")

    @property
    def trivial(self) -> bool:
        """|a| = |b|: the bisector directions are axis-aligned or degenerate."""
        return abs(self.a) == abs(self.b)


@dataclass(frozen=True)
class PairClassification:
    """a and b as x-components of rational points on x^2 - d y^2 = -1.

    d = 1 marks the Pythagorean case (a^2+1 and b^2+1 are rational squares).
    """

    d: int
    a2: Fraction
    b2: Fraction


def _squarefree_kernel(n: int) -> int:
    kernel = 1
    for p, e in factorize(n).items():
        if e % 2:
            kernel *= p
    return kernel


def classify_pair(a: Fraction, b: Fraction) -> PairClassification:
    """Find the common d with a^2+1 = d a2^2 and b^2+1 = d b2^2, if any."""
    a, b = Fraction(a), Fraction(b)
    if abs(a) == abs(b):
        raise TrivialPairError("|a| = |b| is a trivial pair")
    den = lcm(a.denominator, b.denominator)
    na = int(a * den) ** 2 + den * den
    nb = int(b * den) ** 2 + den * den
    da, db = _squarefree_kernel(na), _squarefree_kernel(nb)
    if da != db:
        raise NoRationalBisector(
            f"slopes {a} and {b} lead to distinct square-free kernels {da} and {db}"
        )
    a2 = Fraction(isqrt(na // da), den)
    b2 = Fraction(isqrt(nb // da), den)
    if a * a + 1 != da * a2 * a2 or b * b + 1 != da * b2 * b2:
        raise InvariantError(f"({a}, {b}) do not lie on x^2 - {da} y^2 = -1 with ({a2}, {b2})")
    return PairClassification(d=da, a2=a2, b2=b2)


def from_pell_points(
    a1: Fraction, a2: Fraction, b1: Fraction, b2: Fraction, d: int
) -> tuple[Fraction | None, Fraction | None]:
    """The two candidate bisector slopes from two points on x^2 - d y^2 = -1.

    Each branch is None when its denominator vanishes (b2 = -a2 and b2 = a2
    respectively).  When both exist they are perpendicular: c+ * c- = -1.
    """
    a1, a2, b1, b2 = (Fraction(v) for v in (a1, a2, b1, b2))
    for x, y in ((a1, a2), (b1, b2)):
        if x * x - d * y * y != -1:
            raise ValueError(f"({x}, {y}) is not on x^2 - {d} y^2 = -1")
    c_plus = (a1 * b2 + a2 * b1) / (b2 + a2) if b2 != -a2 else None
    c_minus = (a1 * b2 - a2 * b1) / (b2 - a2) if b2 != a2 else None
    if c_plus is not None and c_minus is not None and c_plus * c_minus != -1:
        raise InvariantError(f"bisector slopes {c_plus} and {c_minus} are not perpendicular")
    return c_plus, c_minus


def bisect(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Both bisector slopes (c+, c-) for a non-trivial rational pair."""
    a, b = Fraction(a), Fraction(b)
    cls = classify_pair(a, b)
    c_plus, c_minus = from_pell_points(a, cls.a2, b, cls.b2, cls.d)
    if c_plus is None or c_minus is None:  # a2, b2 > 0 and |a| != |b| rule both out
        raise InvariantError(f"degenerate bisector denominator for ({a}, {b})")
    return c_plus, c_minus


def case1_generate(l: int, m: int, n: int) -> tuple[BisectorTriple, BisectorTriple]:
    """Pythagorean-parametrized triples: both bisector choices for
    a = (l^2-n^2)/2ln, b = (m^2-n^2)/2mn."""
    if abs(l) == abs(m):
        raise ValueError("need |l| != |m|")
    if l * m == n * n:
        raise ValueError("need l*m != n^2")
    if l * m * n == 0:
        raise ValueError("need l, m, n nonzero")
    a = Fraction(l * l - n * n, 2 * l * n)
    b = Fraction(m * m - n * n, 2 * m * n)
    # l + m = 0 would zero this denominator, but |l| != |m| already forbids it
    c_plus = Fraction(l * m - n * n, (l + m) * n)
    c_minus = Fraction(-(l + m) * n, l * m - n * n)
    return BisectorTriple(a, b, c_plus), BisectorTriple(a, b, c_minus)


def case2_generate(
    ctx: PellContext, alpha: QuadElem, beta: QuadElem
) -> tuple[BisectorTriple, BisectorTriple]:
    """Triples from two norm -1 elements of Q(sqrt(d)): a and b are the
    rational parts, the bisector slope is the ratio of sqrt(d)-parts of
    alpha*beta and alpha+beta."""
    if alpha.d != ctx.d or beta.d != ctx.d:
        raise ValueError("alpha and beta must live in the context's field")
    (x1, y1, m1), (x2, y2, m2) = alpha.scaled_coords(), beta.scaled_coords()
    if x1 * x1 - ctx.d * y1 * y1 != -m1 * m1 or x2 * x2 - ctx.d * y2 * y2 != -m2 * m2:
        raise ValueError("need N(alpha) = N(beta) = -1")
    # beta = +-alpha or +-alpha' iff the scaled coordinates agree up to signs; m1 = m2 follows from the norms
    if abs(x1) == abs(x2) and abs(y1) == abs(y2):
        raise ValueError("beta = +-alpha or +-alpha' is degenerate")
    c_plus = Fraction(x1 * y2 + y1 * x2, y1 * m2 + y2 * m1)  # both parts are over m1*m2
    c_minus = -1 / c_plus
    return BisectorTriple(alpha.a, beta.a, c_plus), BisectorTriple(alpha.a, beta.a, c_minus)


def integral_generate(ctx: PellContext, m: int, n: int) -> BisectorTriple:
    """Integral triple (f_(2m-1)(2n-1), f_(2m-1)(2n+1), g_(2m-1)2n / g_(2m-1))
    built from the solutions f_k + g_k sqrt(d) = eps^k; needs an integrally
    solvable negative Pell equation."""
    if not ctx.neg_pell_integral:
        raise ValueError(f"x^2 - {ctx.d} y^2 = -1 has no integral solutions")
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    k = 2 * m - 1
    powers = {i: ctx.eps**i for i in (k * (2 * n - 1), k * (2 * n + 1), k * 2 * n, k)}
    a = powers[k * (2 * n - 1)].a
    b = powers[k * (2 * n + 1)].a
    c = powers[k * 2 * n].b / powers[k].b
    if c.denominator != 1:
        raise InvariantError(f"integral triple has non-integral slope {c}")
    return BisectorTriple(a, b, c)


def integral_generate2(n: int) -> BisectorTriple:
    """The extra d = 2 integral family (f_2n-1, -f_2n+1, f_2n)."""
    if n < 1:
        raise ValueError("n must be positive")
    eps = QuadElem.from_int_pair(2, 1, 1)
    f = {k: (eps**k).a for k in (2 * n - 1, 2 * n, 2 * n + 1)}
    return BisectorTriple(f[2 * n - 1], -f[2 * n + 1], f[2 * n])
