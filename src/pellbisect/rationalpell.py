"""Rational points on x^2 - d y^2 = (-1)^r: generation from representation
parameters with fractional prime-power scales, and the inverse decomposition
through denominator clearing."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import is_square, rational, require_ints
from .pellcore import PellContext, Spectrum, _xi_cached, check_context, spectrum
from .quadfield import InvariantError, check_field_index
from .solver import Representation, XiPower, _bound, _checked, _evaluate_scaled, _label


@dataclass(frozen=True)
class RationalPellPoint:
    d: int
    x: Fraction
    y: Fraction
    r: int

    def __post_init__(self) -> None:
        check_field_index(self.d)
        object.__setattr__(self, "x", rational(self.x))
        object.__setattr__(self, "y", rational(self.y))
        if type(self.r) is not int or self.r not in (0, 1):
            raise ValueError("r must be 0 or 1")
        if self.x**2 - self.d * self.y**2 != (-1) ** self.r:
            raise ValueError(f"({self.x}, {self.y}) is not on x^2-{self.d}y^2 = (-1)^{self.r}")


def _parity_r(ctx: PellContext, rep: Representation) -> int:
    """Sign parity of the evaluated point, one factor at a time: eta^n when
    N(eta) = -1, each negative-norm xi_p^exp, and a negative-norm core.  Each p has an
    entry: rational_family takes it from a spectrum, generate_rational has evaluated rep."""
    r = rep.n if ctx.norm_eta == -1 else 0
    r += sum(t.exp for t in rep.terms if _xi_cached(ctx.d, t.p).norm_sign == -1)
    if rep.core is not None and rep.core.x**2 - ctx.d * rep.core.y**2 < 0:
        r += 1
    return r % 2


def generate_rational(ctx: PellContext, spec: Spectrum, rep: Representation) -> RationalPellPoint:
    """Evaluate a representation scaled down to a point on x^2-dy^2 = +-1.

    The scale is implied by the terms: the norm of the unscaled element must
    be a perfect square and its root is divided back out.
    """
    check_context(ctx)
    if _checked(rep).d != ctx.d:
        raise ValueError("representation and context disagree on d")
    pmax = _bound(ctx.d, spec)
    past = [t.p for t in rep.terms if t.p > pmax]
    if past:
        raise ValueError(f"spectrum only covers primes <= {pmax}, asked for {min(past)}")
    return _point(ctx, rep)


def _point(ctx: PellContext, rep: Representation) -> RationalPellPoint:
    """generate_rational's point, for a rep of ctx's d whose every p is prime."""
    x, y, m = _evaluate_scaled(rep)
    norm = x * x - ctx.d * y * y
    if norm == 0:  # d is no square, so the value is 0
        raise ValueError(f"the representation evaluates to 0, no point of x^2-{ctx.d}y^2 = +-1")
    z_core = Fraction(abs(norm), m * m)
    if z_core.denominator != 1 or not is_square(z_core.numerator):
        raise ValueError(f"parity violation: term exponents must give a square modulus (got {z_core})")
    m *= isqrt(z_core.numerator)
    r = 0 if norm > 0 else 1
    if r != _parity_r(ctx, rep):
        raise InvariantError(f"norm sign {r} disagrees with the parity of the representation")
    return RationalPellPoint(d=ctx.d, x=Fraction(x, m), y=Fraction(y, m), r=r)


def decompose_rational(ctx: PellContext, spec: Spectrum, pt: RationalPellPoint) -> Representation:
    """The canonical label of the point: its cleared solution factored, with the scale
    1/den of its common denominator, and on d = 5 mod 8 no xi_2 where xi_2 / 2 is a unit.
    generate_rational gives the point back from it."""
    check_context(ctx)
    if not isinstance(pt, RationalPellPoint):
        raise ValueError(f"need a RationalPellPoint, got {pt!r}")
    if pt.d != ctx.d:
        raise ValueError("point and context disagree on d")
    return _label(ctx, _bound(ctx.d, spec), pt.x, pt.y)


def _family(ctx: PellContext, primes: Iterable, max_terms: int, n_range: Iterable[int]) -> Iterator[Representation]:
    """rational_family's candidates in its order: each subset of at most max_terms of the spectrum
    primes, each at exponent 1 if the level of its xi_p is even, else 2, under every conjugation,
    unit exponent in n_range and sign.  The half-coordinate xi_2 / 2 of d = 1 mod 8 stays out."""
    usable = [(p, 1 + _xi_cached(ctx.d, p).l % 2) for p in primes if not (p == 2 and ctx.d % 8 == 1)]
    subsets: list[list[tuple[int, int]]] = [[]]
    for p, e in usable:
        subsets += [s + [(p, e)] for s in subsets if len(s) < max_terms]
    for subset in subsets:
        for conj_mask in range(2 ** len(subset)):
            terms = tuple(XiPower(p, e, bool(conj_mask >> i & 1)) for i, (p, e) in enumerate(subset))
            for n in n_range:
                for sign in (1, -1):
                    yield Representation(d=ctx.d, sign=sign, n=n, terms=terms)


def rational_family(ctx: PellContext, sign: int, max_terms: int, n_range: Iterable[int],
                    pmax: int) -> list[tuple[RationalPellPoint, Representation]]:
    """Points on x^2 - d y^2 = sign from the candidates of _family over spectrum(ctx, pmax):
    each distinct point with the first candidate that gives it, sorted by (denominator of x,
    |x|, y).  A candidate of the other sign is dropped by its parity, unevaluated."""
    require_ints(sign=sign, max_terms=max_terms)
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, got {sign}")
    if max_terms < 0:
        raise ValueError("max_terms must be >= 0")
    if not isinstance(n_range, Iterable):
        raise ValueError(f"n_range must be an iterable of integers, got {n_range!r}")
    n_range = tuple(n_range)  # _family walks it once per term set
    primes = spectrum(ctx, pmax).primes
    want_r = 1 if sign == -1 else 0
    seen = {}
    for rep in _family(ctx, primes, max_terms, n_range):
        if _parity_r(ctx, rep) == want_r:
            pt = _point(ctx, rep)
            seen.setdefault((pt.x, pt.y), (pt, rep))
    return sorted(seen.values(), key=lambda pr: (pr[0].x.denominator, abs(pr[0].x), pr[0].y))
