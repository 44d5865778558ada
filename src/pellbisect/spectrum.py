"""The prime spectrum of |x^2 - d y^2| = p^l: which primes admit strictly
primitive solutions of a prime-power modulus, the minimal exponent l_p, and
the fundamental element xi_p for each of them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt

from .arith import primes_upto, strict_hits
from .pellcore import PellContext, check_prime, make_context, prime_splits
from .quadfield import InvariantError, QuadElem, check_field_index


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
        x, y, d = self.x, self.y, self.d
        if x <= 0 or y <= 0 or x * x - d * y * y != self.norm_sign * self.p**self.l or gcd(x, d * y) != 1:
            raise XiEntryError(f"{self} is not a positive strictly primitive solution")

    @property
    def elem(self) -> QuadElem:
        return QuadElem._of(self.d, Fraction(self.x), Fraction(self.y))


@dataclass(frozen=True)
class Spectrum:
    """Entries for all spectrum primes up to pmax, in increasing order."""

    d: int
    pmax: int
    entries: tuple[XiEntry, ...]

    def get(self, p: int) -> XiEntry | None:
        if p > self.pmax:
            raise ValueError(f"spectrum only covers primes <= {self.pmax}, asked for {p}")
        for e in self.entries:
            if e.p == p:
                return e
        return None

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(e.p for e in self.entries)

    @property
    def s_minus(self) -> frozenset[int]:
        return frozenset(e.p for e in self.entries if e.norm_sign == -1)


def in_s(ctx: PellContext, p: int) -> bool:
    """Split primes, plus 2 if d = 5 mod 8 and eta is half-integral; ValueError unless p is prime."""
    return _in_s(ctx, check_prime(ctx.d, p))


def _in_s(ctx: PellContext, p: int) -> bool:
    """in_s for a known prime: the one rule that in_s and the sieve share."""
    return (p == 2 and ctx.d % 8 == 5 and not ctx.eta_in_zd) or prime_splits(ctx.d, p)


@lru_cache(maxsize=None)
def _xi_cached(d: int, p: int) -> XiEntry | None:
    """xi_p of a known prime: the minimal-y solution at the least level l.  Level l
    scans y up to (f1 + g1*ceil(sqrt(d))) * p^ceil(l/2), one eps-multiplication past
    each class's minimal member.  h only guards the loop once a level misses: 3h
    covers the index-3 unit subgroup for d = 1 mod 4, +2 the cofactor 2 at p = 2."""
    ctx = make_context(d)
    if not _in_s(ctx, p):
        return None
    f1, g1 = ctx.f1, ctx.g1
    base = f1 + g1 * (isqrt(d) + 1)
    signs = (1,) if f1 * f1 - d * g1 * g1 == -1 else (1, -1)  # N(eps) = -1: only + competes
    for l in count(2 if p == 2 and d % 8 == 5 else 1):  # a half-coordinate unit pins l_2 = 2
        for x, y, sign in strict_hits(d, p**l, base * p ** ((l + 1) // 2), signs):
            return XiEntry(d=d, p=p, l=l, x=x, y=y, norm_sign=sign)
        if l >= 3 * ctx.h + 2:
            raise InvariantError(f"no fundamental element found for d={d}, p={p} within level bound")


def xi(ctx: PellContext, p: int) -> XiEntry | None:
    """Fundamental element for p, None outside the spectrum; ValueError unless p is prime."""
    return _xi_cached(ctx.d, check_prime(ctx.d, p))


@lru_cache(maxsize=256)
def _spectrum_cached(d: int, pmax: int) -> Spectrum:
    return Spectrum(d, pmax, tuple(filter(None, (_xi_cached(d, p) for p in primes_upto(pmax)))))


def spectrum(ctx: PellContext, pmax: int) -> Spectrum:
    """All spectrum entries with p <= pmax, ordered by p; memoized per
    (d, pmax), so repeated calls return the same Spectrum."""
    if pmax < 2:
        raise ValueError("pmax must be at least 2")
    return _spectrum_cached(ctx.d, pmax)
