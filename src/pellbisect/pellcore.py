"""Per-d invariants of Q(sqrt(d)): continued fraction of sqrt(d), fundamental
unit, fundamental |x^2 - d y^2| = 1 solution, splitting tests, class number,
and negative-Pell solvability flags."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import divisors, factorize, icbrt, is_prime, legendre
from .quadfield import QuadElem, check_field_index


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction of sqrt(d): [a0; period repeating]."""

    a0: int
    period: tuple[int, ...]


def continued_fraction_sqrt(d: int) -> CFExpansion:
    """Exact expansion via the integer (P, Q) recurrence."""
    check_field_index(d)
    a0 = isqrt(d)
    p, q = a0, d - a0 * a0
    start = (p, q)
    terms = []
    while True:
        a = (a0 + p) // q
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q
        if (p, q) == start:
            break
    assert terms[-1] == 2 * a0
    return CFExpansion(a0, tuple(terms))


def _convergent(cf: CFExpansion, k: int) -> tuple[int, int]:
    """k-th convergent numerator/denominator, k=0 being a0 itself."""
    h0, h1 = 1, cf.a0
    k0, k1 = 0, 1
    for i in range(k):
        a = cf.period[i % len(cf.period)]
        h0, h1 = h1, a * h1 + h0
        k0, k1 = k1, a * k1 + k0
    return h1, k1


@dataclass(frozen=True)
class PellContext:
    """Everything the solvers need to know about a single d."""

    d: int
    disc: int
    eta: QuadElem
    eps: QuadElem
    norm_eta: int
    eta_in_zd: bool
    neg_pell_integral: bool
    neg_pell_rational: bool
    h: int

    @property
    def f1(self) -> int:
        return int(self.eps.a)

    @property
    def g1(self) -> int:
        return int(self.eps.b)


def _half_coordinate_unit(d: int, f1: int, norm: int) -> QuadElem | None:
    """The unit (u + v*sqrt(d))/2 with u, v odd whose cube is eps = f1 +
    g1*sqrt(d) of the given norm, or None when O_K has no such unit.

    Only d = 5 mod 8 can have one: for d = 1 mod 8, u^2 - d v^2 = 0 mod 8 is
    never +-4.  The trace u solves u^3 - 3*norm*u = 2*f1, which puts it at
    the cube root of 2*f1 or one above.
    """
    if d % 8 != 5:
        return None
    c = icbrt(2 * f1)
    for u in (c, c + 1):
        if u % 2 == 1 and u**3 - 3 * norm * u == 2 * f1:
            v2, rem = divmod(u * u - 4 * norm, d)
            v = isqrt(v2)
            if rem == 0 and v * v == v2 and v % 2 == 1:
                return QuadElem(d, Fraction(u, 2), Fraction(v, 2))
    return None


@lru_cache(maxsize=None)
def make_context(d: int) -> PellContext:
    """Build the per-d bundle; memoized, safe for concurrent readers."""
    check_field_index(d)
    cf = continued_fraction_sqrt(d)
    f1, g1 = _convergent(cf, len(cf.period) - 1)
    eps = QuadElem.from_int_pair(d, f1, g1)
    norm_eps = int(eps.norm())
    assert norm_eps in (1, -1)

    eta = _half_coordinate_unit(d, f1, norm_eps)
    eta_in_zd = eta is None
    if eta_in_zd:
        eta = eps
    else:
        assert eta ** 3 == eps
    norm_eta = int(eta.norm())
    assert norm_eta == norm_eps

    neg_pell_integral = norm_eta == -1
    disc = d if d % 4 == 1 else 4 * d
    h_plus = _narrow_class_number(disc)
    if neg_pell_integral:
        h = h_plus
    else:
        assert h_plus % 2 == 0
        h = h_plus // 2
    return PellContext(
        d=d,
        disc=disc,
        eta=eta,
        eps=eps,
        norm_eta=norm_eta,
        eta_in_zd=eta_in_zd,
        neg_pell_integral=neg_pell_integral,
        neg_pell_rational=_neg_pell_rational(d),
        h=h,
    )


def pell_sequence(d: int, n: int) -> tuple[int, int]:
    """(f_n, g_n) with f_n + g_n*sqrt(d) = eps^n; strictly increasing in n."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    return (make_context(d).eps ** n).int_coords()


def splits(d: int, p: int) -> bool:
    """True iff p splits in Q(sqrt(d))."""
    check_field_index(d)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 2:
        return d % 8 == 1
    if d % p == 0:
        return False
    return legendre(d, p) == 1


def class_number(d: int) -> int:
    """Ideal class number h of Q(sqrt(d))."""
    return make_context(d).h


def neg_pell_rational(d: int) -> bool:
    """True iff x^2 - d y^2 = -1 has a rational solution."""
    check_field_index(d)
    return _neg_pell_rational(d)


def _neg_pell_rational(d: int) -> bool:
    return all(p == 2 or p % 4 == 1 for p in factorize(d))


def _reduced_forms(D: int) -> set[tuple[int, int, int]]:
    """All reduced primitive indefinite forms (a, b, c) of discriminant D.

    Reduced means 0 < b < sqrt(D) and sqrt(D) - b < 2|a| < sqrt(D) + b,
    decided exactly with integer squares (D is never a perfect square here).
    """
    forms: set[tuple[int, int, int]] = set()
    s = isqrt(D)
    for b in range(1, s + 1):
        if (D - b) % 2:
            continue
        prod = (D - b * b) // 4  # = |a*c|, with a*c < 0
        for a_abs in divisors(prod):
            t = 2 * a_abs
            if (t + b) ** 2 > D and (t <= b or (t - b) ** 2 < D):
                for a in (a_abs, -a_abs):
                    c = (b * b - D) // (4 * a)
                    if gcd(gcd(a_abs, b), abs(c)) == 1:
                        forms.add((a, b, c))
    return forms


def _rho(form: tuple[int, int, int], D: int, s: int) -> tuple[int, int, int]:
    """Reduction-step neighbour; permutes the reduced forms in cycles."""
    _, b, c = form
    m = 2 * abs(c)
    r = s - ((s + b) % m)
    return (c, r, (r * r - D) // (4 * c))


def _narrow_class_number(D: int) -> int:
    """Number of rho-cycles of reduced forms = narrow class number h+."""
    forms = _reduced_forms(D)
    s = isqrt(D)
    cycles = 0
    while forms:
        cycles += 1
        start = min(forms)
        f = start
        while True:
            forms.discard(f)
            f = _rho(f, D, s)
            if f == start:
                break
    return cycles
