"""The prime spectrum of |x^2 - d y^2| = p^l: which primes admit strictly
primitive solutions of a prime-power modulus, the minimal exponent l_p, and
the fundamental element xi_p for each of them."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import primes_upto, strict_hits
from .pellcore import PellContext, make_context, splits
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
    """Closed-form membership: the split primes, plus 2 when d = 5 mod 8 and
    the fundamental unit has half-integer coordinates; raises ValueError
    when p is not prime."""
    if p == 2 and ctx.d % 8 == 5 and not ctx.eta_in_zd:
        return True
    return splits(ctx.d, p)


def _search_fundamental(ctx: PellContext, p: int, l: int) -> tuple[int, int, int] | None:
    """Minimal-y strictly primitive solution of |x^2-dy^2| = p^l, or None.

    y is bounded by (f1 + g1*ceil(sqrt(d))) * p^ceil(l/2): every solution
    class has a representative within one eps-multiplication of its minimal
    member, and that window is comfortably inside this bound.
    """
    y_bound = (ctx.f1 + ctx.g1 * (isqrt(ctx.d) + 1)) * p ** ((l + 1) // 2)
    signs = (1,) if ctx.neg_pell_integral else (1, -1)
    return next(strict_hits(ctx.d, p**l, y_bound, signs), None)


@lru_cache(maxsize=None)
def _xi_cached(d: int, p: int) -> XiEntry | None:
    ctx = make_context(d)
    if not in_s(ctx, p):
        return None
    if p == 2 and d % 8 == 5:
        # half-coordinate unit exists here, which pins l_2 = 2
        levels: list[int] = [2]
    else:
        # the class-structure bound: 3h covers the index-3 unit subgroup for
        # d = 1 mod 4, and +2 covers the forced cofactor 2 at p = 2
        levels = list(range(1, 3 * ctx.h + 3))
    for l in levels:
        hit = _search_fundamental(ctx, p, l)
        if hit is not None:
            x, y, sign = hit
            return XiEntry(d=d, p=p, l=l, x=x, y=y, norm_sign=sign)
    raise InvariantError(f"no fundamental element found for d={d}, p={p} within level bound")


def xi(ctx: PellContext, p: int) -> XiEntry | None:
    """Fundamental element for p, or None when p is outside the spectrum;
    raises ValueError when p is not prime."""
    return _xi_cached(ctx.d, p)


@lru_cache(maxsize=256)
def _spectrum_cached(d: int, pmax: int) -> Spectrum:
    entries = (_xi_cached(d, p) for p in primes_upto(pmax))
    return Spectrum(d=d, pmax=pmax, entries=tuple(e for e in entries if e is not None))


def spectrum(ctx: PellContext, pmax: int) -> Spectrum:
    """All spectrum entries with p <= pmax, ordered by p; memoized per
    (d, pmax), so repeated calls return the same Spectrum."""
    if pmax < 2:
        raise ValueError("pmax must be at least 2")
    return _spectrum_cached(ctx.d, pmax)
