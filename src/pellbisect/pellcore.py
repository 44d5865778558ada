"""Per-d arithmetic of Q(sqrt(d)): continued fractions, units, class number,
negative-Pell flags, splitting of primes, and the prime spectrum of
|x^2 - d y^2| = p^l: the minimal exponent l_p and the fundamental element xi_p
of each prime that admits a strictly primitive solution of a power of it."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .arith import divisors, factorize, is_prime, legendre, primes_upto, require_ints, strict_hits
from .quadfield import InvariantError, QuadElem, _pow_scaled, check_field_index


@dataclass(frozen=True)
class CFExpansion:
    """Periodic continued fraction [a0; period repeating] of (p + sqrt(d))/q."""

    a0: int
    period: tuple[int, ...]


def _period(d: int, p: int, q: int) -> CFExpansion:
    """Expansion of (p + sqrt(d))/q, q > 0 dividing d - p^2, by the integer (P, Q)
    recurrence.  For p < sqrt(d) < p + q the tail after a0 is reduced, so the period
    starts right after a0 and closes when (P, Q) comes back."""
    s = isqrt(d)
    a0 = (p + s) // q
    p = a0 * q - p
    q = (d - p * p) // q
    start = (p, q)
    terms = []
    while True:
        a = (p + s) // q
        terms.append(a)
        p = a * q - p
        q = (d - p * p) // q
        if (p, q) == start:
            return CFExpansion(a0, tuple(terms))


def continued_fraction_sqrt(d: int) -> CFExpansion:
    """Exact expansion of sqrt(d)."""
    cf = _period(check_field_index(d), 0, 1)
    if cf.period[-1] != 2 * cf.a0:
        raise InvariantError(f"period of sqrt({d}) does not close on 2*a0")
    return cf


@dataclass(frozen=True)
class PellContext:
    """The units of d: eta, fundamental in O_K, and eps = f1 + g1*sqrt(d) = eta or
    eta^3, least in Z[sqrt(d)].  The rest is derived on each read; h is memoized."""

    d: int
    eta: QuadElem
    eps: QuadElem

    @property
    def f1(self) -> int:
        return int(self.eps.a)

    @property
    def g1(self) -> int:
        return int(self.eps.b)

    @property
    def disc(self) -> int:
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def norm_eta(self) -> int:
        f1, g1 = self.f1, self.g1
        return f1 * f1 - self.d * g1 * g1  # N(eps), which is N(eta)

    @property
    def eta_in_zd(self) -> bool:
        return self.eta.b.denominator == 1  # a half-coordinate eta has v/2, v odd

    @property
    def neg_pell_integral(self) -> bool:
        return self.norm_eta == -1

    @property
    def neg_pell_rational(self) -> bool:
        return neg_pell_rational(self.d)  # the module-level test

    @property
    def h(self) -> int:
        return class_number(self.d)


def check_context(ctx: PellContext) -> PellContext:
    """ctx, once checked as a PellContext (ValueError)."""
    if not isinstance(ctx, PellContext):
        raise ValueError(f"need a PellContext, got {ctx!r}")
    return ctx


@lru_cache(maxsize=1024)
def make_context(d: int) -> PellContext:
    """Find the units of d; memoized, safe for concurrent readers.  With omega = (1 + sqrt(d))/2
    for d = 1 mod 4, else sqrt(d), and f/g the convergent of omega just before its period
    closes, eta = f - g*conj(omega) (Cohen, A Course in Computational Algebraic Number
    Theory, 5.7); Z[sqrt(d)]* has index 1 or 3 in O_K*, so eps is eta or eta^3."""
    q = 2 if check_field_index(d) % 4 == 1 else 1
    cf = _period(d, q - 1, q)
    f0, f, g0, g = 1, cf.a0, 0, 1
    for a in cf.period[:-1]:
        f0, f, g0, g = f, a * f + f0, g, a * g + g0
    x = q * f - (q - 1) * g  # eta = (x + g*sqrt(d))/q, built on integers: d is checked once, above
    eta = QuadElem._of(d, Fraction(x, q), Fraction(g, q))
    ex, ey, em = _pow_scaled(d, x, g, q, 1 if g % q == 0 else 3)  # eps in lowest terms
    if x * x - d * g * g not in (q * q, -q * q) or em != 1:
        raise InvariantError(f"convergent of omega for d = {d} gives {eta}, not a unit with eps in Z[sqrt(d)]")
    return PellContext(d, eta, QuadElem._of(d, Fraction(ex), Fraction(ey)))


def pell_sequence(d: int, n: int) -> tuple[int, int]:
    """(f_n, g_n) with f_n + g_n*sqrt(d) = eps^n; strictly increasing in n."""
    if type(n) is not int or n <= 0:
        raise ValueError("n must be a positive integer")
    return (make_context(d).eps ** n).int_coords()


def splits(d: int, p: int) -> bool:
    """True iff p splits in Q(sqrt(d)); raises ValueError when p is not prime."""
    return _prime_splits(d, _check_prime(d, p))


def _check_prime(d: int, p: int) -> int:
    """p, once d is checked as a field index and p as a prime (ValueError)."""
    check_field_index(d)
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return p


def _prime_splits(d: int, p: int) -> bool:
    """splits() without its checks, for a p already known to be prime."""
    return d % 8 == 1 if p == 2 else d % p != 0 and legendre(d, p) == 1


class XiEntryError(ValueError):
    """The (x, y) of an XiEntry does not solve x^2 - d y^2 = norm_sign * p^l strictly primitively."""


@dataclass(frozen=True)
class XiEntry:
    """Fundamental solution data for one prime: |x^2 - d y^2| = p^l.

    The stored (x, y) is the positive solution with minimal y under the sign
    convention: when x^2 - d y^2 = -1 is integrally solvable only the
    + equation competes, otherwise both signs do.
    """

    d: int
    p: int
    l: int
    x: int
    y: int
    norm_sign: int

    def __post_init__(self) -> None:
        check_field_index(self.d)
        require_ints(p=self.p, l=self.l, x=self.x, y=self.y, norm_sign=self.norm_sign)
        if self.l < 1 or self.norm_sign not in (1, -1):
            raise ValueError(f"{self} needs a level l >= 1 and a sign norm_sign of 1 or -1")
        self._solves()

    def _solves(self) -> XiEntry:  # self, once (x, y) is a positive strictly primitive solution
        x, y, d = self.x, self.y, self.d
        if x <= 0 or y <= 0 or x * x - d * y * y != self.norm_sign * self.p**self.l or gcd(x, d * y) != 1:
            raise XiEntryError(f"{self} is not a positive strictly primitive solution")
        return self

    @staticmethod
    def _of(d: int, p: int, l: int, x: int, y: int, norm_sign: int) -> XiEntry:
        """A scan hit: d is already checked and the rest are ints, so only _solves runs."""
        entry = object.__new__(XiEntry)
        entry.__dict__.update(d=d, p=p, l=l, x=x, y=y, norm_sign=norm_sign)
        return entry._solves()

    @property
    def elem(self) -> QuadElem:
        return QuadElem._of(self.d, Fraction(self.x), Fraction(self.y))


@dataclass(frozen=True)
class Spectrum:
    """Entries for all spectrum primes up to pmax, in increasing order."""

    d: int
    pmax: int
    entries: tuple[XiEntry, ...]

    def __post_init__(self) -> None:
        check_field_index(self.d)
        require_ints(pmax=self.pmax)
        if not isinstance(self.entries, tuple):
            raise ValueError(f"entries must be a tuple of XiEntry, got {type(self.entries).__name__}")
        last = 0
        for e in self.entries:
            if not isinstance(e, XiEntry) or e.d != self.d or not last < e.p <= self.pmax:
                raise ValueError(f"entries must be XiEntry of d = {self.d} at strictly increasing p <= {self.pmax}")
            last = e.p

    def get(self, p: int) -> XiEntry | None:
        require_ints(p=p)
        if p > self.pmax:
            raise ValueError(f"spectrum only covers primes <= {self.pmax}, asked for {p}")
        return next((e for e in self.entries if e.p == p), None)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries)

    @property
    def s_minus(self) -> frozenset[int]:
        return frozenset(e.p for e in self.entries if e.norm_sign == -1)


def in_s(ctx: PellContext, p: int) -> bool:
    """Split primes, plus 2 if d = 5 mod 8 and eta is half-integral; ValueError unless p is prime."""
    return _in_s(check_context(ctx), _check_prime(ctx.d, p))


def _in_s(ctx: PellContext, p: int) -> bool:
    """in_s for a known prime: the one rule that in_s and the sieve share."""
    return (p == 2 and ctx.d % 8 == 5 and not ctx.eta_in_zd) or _prime_splits(ctx.d, p)


@lru_cache(maxsize=1024)
def _scan_constants(d: int) -> tuple[PellContext, int, tuple[int, ...]]:
    """Once per d, what each scan of _xi_cached reads: the context, its y-bound's base, the competing signs."""
    ctx = make_context(d)
    return ctx, ctx.f1 + ctx.g1 * (isqrt(d) + 1), (1,) if ctx.norm_eta == -1 else (1, -1)


@lru_cache(maxsize=8192)
def _xi_cached(d: int, p: int) -> XiEntry | None:
    """xi_p of a known prime: the minimal-y solution at the least level l.  Level l
    scans y up to (f1 + g1*ceil(sqrt(d))) * p^ceil(l/2), one eps-multiplication past
    each class's minimal member.  At p = 2 the scan starts at l = 2 for d = 5 mod 8,
    where a half-coordinate unit pins l_2 = 2, and at l = 3 for d = 1 mod 8, where an
    even norm with gcd(x, d y) = 1 makes x, y odd and so x^2 - d y^2 = 1 - d = 0 mod 8.
    h only guards the loop once a level misses: 3h covers the index-3 unit subgroup
    for d = 1 mod 4, +2 the cofactor 2 at p = 2."""
    ctx, base, signs = _scan_constants(d)
    if not _in_s(ctx, p):
        return None
    for l in count({1: 3, 5: 2}.get(d % 8, 1) if p == 2 else 1):
        for x, y, sign in strict_hits(d, p**l, base * p ** ((l + 1) // 2), signs):
            return XiEntry._of(d, p, l, x, y, sign)
        if l >= 3 * ctx.h + 2:
            raise InvariantError(f"no fundamental element found for d={d}, p={p} within level bound")


def xi(ctx: PellContext, p: int) -> XiEntry | None:
    """Fundamental element for p, None outside the spectrum; ValueError unless p is prime."""
    return _xi_cached(check_context(ctx).d, _check_prime(ctx.d, p))


@lru_cache(maxsize=256)
def _spectrum_cached(d: int, pmax: int) -> Spectrum:
    return Spectrum(d, pmax, tuple(filter(None, (_xi_cached(d, p) for p in primes_upto(pmax)))))


def spectrum(ctx: PellContext, pmax: int) -> Spectrum:
    """All spectrum entries with p <= pmax, ordered by p; memoized per
    (d, pmax), so repeated calls return the same Spectrum."""
    if not isinstance(pmax, int) or pmax < 2:
        raise ValueError("pmax must be at least 2")
    return _spectrum_cached(check_context(ctx).d, pmax)


@lru_cache(maxsize=1024)
def class_number(d: int) -> int:
    """Class number h of Q(sqrt(d)): narrow h+, halved unless N(eta) = -1; memoized."""
    ctx = make_context(d)
    h_plus = _narrow_class_number(ctx.disc)
    if ctx.neg_pell_integral:
        return h_plus
    if h_plus % 2:
        raise InvariantError(f"odd narrow class number {h_plus} with N(eta) = 1 for d = {d}")
    return h_plus // 2


def neg_pell_rational(d: int) -> bool:
    """True iff x^2 - d y^2 = -1 has a rational solution."""
    check_field_index(d)
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
