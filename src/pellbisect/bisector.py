"""Rational angle bisectors of two origin lines with rational slopes.

The slopes a, b of the lines and the slope c of an angle bisector satisfy
(a-c)^2 (b^2+1) = (b-c)^2 (a^2+1); everything here produces or checks exact
rational solutions of that equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .arith import factorize, is_square, primes_upto, rational, require_ints
from .pellcore import PellContext, _xi_cached, check_context
from .quadfield import InvariantError, QuadElem, _clear_pair


class NoRationalBisector(ValueError):
    """The bisectors of the given slope pair have irrational slopes."""


class TrivialPairError(ValueError):
    """|a| = |b|: the bisector directions are axis-aligned or degenerate."""


def verify_star(a: Fraction, b: Fraction, c: Fraction) -> bool:
    """Exact check of (a-c)^2 (b^2+1) == (b-c)^2 (a^2+1) on numerators: with a = an/ad
    and so on, both sides share the denominator (ad*bd*cd)^2.  Each slope goes through arith.rational."""
    a, b, c = rational(a), rational(b), rational(c)
    (an, ad), (bn, bd), (cn, cd) = a.as_integer_ratio(), b.as_integer_ratio(), c.as_integer_ratio()
    return (an * cd - cn * ad) ** 2 * (bn * bn + bd * bd) == (bn * cd - cn * bd) ** 2 * (an * an + ad * ad)


@dataclass(frozen=True)
class BisectorTriple:
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self) -> None:
        self.__dict__.update(a=rational(self.a), b=rational(self.b), c=rational(self.c))
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
    return prod(p for p, e in factorize(n).items() if e % 2)


def _pair_kernel(a: Fraction, b: Fraction) -> tuple[int, int, int, int, int, int]:
    """(d, A, A2, B, B2, D) on integers, D the least common denominator of a and b:
    a = A/D and b = B/D lie on x^2 - d y^2 = -1 with y = A2/D and B2/D, A2, B2 > 0."""
    a, b = rational(a), rational(b)
    A, B, D = _clear_pair(a, b)
    if abs(A) == abs(B):
        raise TrivialPairError("|a| = |b| is a trivial pair")
    na, nb = A * A + D * D, B * B + D * D
    if not is_square(na * nb):  # the kernels differ: decided before any factoring
        raise NoRationalBisector(f"slopes {a} and {b} lead to distinct square-free kernels of a^2+1 and b^2+1")
    d, db = _squarefree_kernel(na), _squarefree_kernel(nb)
    A2, B2 = isqrt(na // d), isqrt(nb // d)
    if d != db or na != d * A2 * A2 or nb != d * B2 * B2:
        raise InvariantError(f"({a}, {b}) do not lie on x^2 - {d} y^2 = -1 with ({Fraction(A2, D)}, {Fraction(B2, D)})")
    return d, A, A2, B, B2, D


def classify_pair(a: Fraction, b: Fraction) -> PairClassification:
    """Find the common d with a^2+1 = d a2^2 and b^2+1 = d b2^2, if any."""
    d, _, A2, _, B2, D = _pair_kernel(a, b)
    return PairClassification(d=d, a2=Fraction(A2, D), b2=Fraction(B2, D))


def _slopes(x1: int, y1: int, m1: int, x2: int, y2: int, m2: int) -> tuple[Fraction | None, Fraction | None]:
    """c+- = (a b2 +- a2 b)/(a2 +- b2) on integers for the points (a, a2) = (x1, y1)/m1 and
    (b, b2) = (x2, y2)/m2 of x^2 - d y^2 = -1; homogeneous in the y-parts, so d never
    enters.  A slope is None where its denominator vanishes; when both exist, c+ * c- = -1."""
    den_plus, den_minus = y1 * m2 + y2 * m1, y2 * m1 - y1 * m2
    c_plus = Fraction(x1 * y2 + y1 * x2, den_plus) if den_plus else None
    c_minus = Fraction(x1 * y2 - y1 * x2, den_minus) if den_minus else None
    if c_plus is not None and c_minus is not None and c_plus * c_minus != -1:
        raise InvariantError(f"bisector slopes {c_plus} and {c_minus} are not perpendicular")
    return c_plus, c_minus


def from_pell_points(
    a1: Fraction, a2: Fraction, b1: Fraction, b2: Fraction, d: int
) -> tuple[Fraction | None, Fraction | None]:
    """The two candidate bisector slopes from two points on x^2 - d y^2 = -1; each is None
    where b2 = -a2 or b2 = a2.  When both exist they are perpendicular: c+ * c- = -1."""
    require_ints(d=d)
    coords: list[int] = []
    for x, y in ((rational(a1), rational(a2)), (rational(b1), rational(b2))):
        sx, sy, m = _clear_pair(x, y)
        if sx * sx - d * sy * sy != -m * m:
            raise ValueError(f"({x}, {y}) is not on x^2 - {d} y^2 = -1")
        coords += (sx, sy, m)
    return _slopes(*coords)


def bisect(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    """Both bisector slopes (c+, c-) for a non-trivial rational pair, by _slopes on _pair_kernel's points."""
    _, A, A2, B, B2, D = _pair_kernel(a, b)
    c_plus, c_minus = _slopes(A, A2, D, B, B2, D)
    if c_plus is None or c_minus is None:  # A2, B2 > 0 and |A| != |B| rule both out
        raise InvariantError(f"degenerate bisector denominator for ({a}, {b})")
    return c_plus, c_minus


def case1_generate(l: int, m: int, n: int) -> tuple[BisectorTriple, BisectorTriple]:
    """Both bisector slopes of the points (l^2-n^2, l^2+n^2)/2ln and (m^2-n^2, m^2+n^2)/2mn of
    x^2 - y^2 = -1.  The slope denominators 2n(l+m)(lm+n^2), 2n(m-l)(lm-n^2) vanish iff |a| = |b|."""
    require_ints(l=l, m=m, n=n)
    if l * m * n == 0:
        raise ValueError("need l, m, n nonzero")
    c_plus, c_minus = _slopes(l * l - n * n, l * l + n * n, 2 * l * n,
                              m * m - n * n, m * m + n * n, 2 * m * n)
    if c_plus is None or c_minus is None:
        raise ValueError("need |l| != |m| and l*m != +-n^2")
    a, b = Fraction(l * l - n * n, 2 * l * n), Fraction(m * m - n * n, 2 * m * n)
    return BisectorTriple(a, b, c_plus), BisectorTriple(a, b, c_minus)


def case2_generate(
    ctx: PellContext, alpha: QuadElem, beta: QuadElem
) -> tuple[BisectorTriple, BisectorTriple]:
    """Triples from two norm -1 elements of Q(sqrt(d)), as points of x^2 - d y^2 = -1:
    a and b are their rational parts."""
    check_context(ctx)
    if not isinstance(alpha, QuadElem) or not isinstance(beta, QuadElem) or {alpha.d, beta.d} != {ctx.d}:
        raise ValueError("alpha and beta must live in the context's field")
    (x1, y1, m1), (x2, y2, m2) = alpha.scaled_coords(), beta.scaled_coords()
    if x1 * x1 - ctx.d * y1 * y1 != -m1 * m1 or x2 * x2 - ctx.d * y2 * y2 != -m2 * m2:
        raise ValueError("need N(alpha) = N(beta) = -1")
    # beta = +-alpha or +-alpha' iff the scaled coordinates agree up to signs; m1 = m2 follows from the norms
    if abs(x1) == abs(x2) and abs(y1) == abs(y2):
        raise ValueError("beta = +-alpha or +-alpha' is degenerate")
    c_plus, c_minus = _slopes(x1, y1, m1, x2, y2, m2)
    return BisectorTriple(alpha.a, beta.a, c_plus), BisectorTriple(alpha.a, beta.a, c_minus)


def case2_alphas(ctx: PellContext, k: int) -> list[QuadElem]:
    """Norm -1 elements for case2_generate to pair up: eta^(2i+1) for i < k when
    x^2 - d y^2 = -1 is integrally solvable, else alpha0 * eta^i for i <= k with
    alpha0 = xi_p / p^(l/2), xi_p the first with norm -p^l and l even, p <= 31."""
    require_ints(k=k)
    if check_context(ctx).neg_pell_integral:
        return [ctx.eta ** (2 * i + 1) for i in range(k)]
    entries = filter(None, (_xi_cached(ctx.d, p) for p in primes_upto(31)))  # up to the first seed
    seed = next((e for e in entries if e.norm_sign == -1 and e.l % 2 == 0), None)
    if seed is None:
        raise NoRationalBisector(f"x^2-{ctx.d}y^2 = -1 has no rational solutions to pair up")
    alpha0 = seed.elem / seed.p ** (seed.l // 2)
    return [alpha0 * ctx.eta**i for i in range(k + 1)]


def integral_generate(ctx: PellContext, m: int, n: int) -> BisectorTriple:
    """Integral triple (f_(2m-1)(2n-1), f_(2m-1)(2n+1), c+) from the points
    f_k + g_k sqrt(d) = eps^k of x^2 - d y^2 = -1 (c+ = g_(2m-1)2n / g_(2m-1));
    needs an integrally solvable negative Pell equation."""
    if not check_context(ctx).neg_pell_integral:
        raise ValueError(f"x^2 - {ctx.d} y^2 = -1 has no integral solutions")
    require_ints(m=m, n=n)
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    k = 2 * m - 1
    alpha, beta = ctx.eps ** (k * (2 * n - 1)), ctx.eps ** (k * (2 * n + 1))
    c, _ = _slopes(*alpha.scaled_coords(), *beta.scaled_coords())
    if c.denominator != 1:
        raise InvariantError(f"integral triple has non-integral slope {c}")
    return BisectorTriple(alpha.a, beta.a, c)


def integral_generate2(n: int) -> BisectorTriple:
    """The extra d = 2 integral family (f_2n-1, -f_2n+1, f_2n): c- of (f_2n-1, g_2n-1), (-f_2n+1, g_2n+1)."""
    require_ints(n=n)
    if n < 1:
        raise ValueError("n must be positive")
    eps = QuadElem.from_int_pair(2, 1, 1)
    (f1, g1), (f2, g2) = (eps ** (2 * n - 1)).int_coords(), (eps ** (2 * n + 1)).int_coords()
    return BisectorTriple(f1, -f2, _slopes(f1, g1, 1, -f2, g2, 1)[1])
