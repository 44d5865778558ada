"""Brute-force reference implementations, kept deliberately naive.

These sweep integer boxes with nothing shared with the solvers beyond the
field arithmetic, so the test suite can compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .arith import rational


@dataclass(frozen=True)
class SearchBox:
    y_bound: int
    denominator_bound: int = 1

    def __post_init__(self) -> None:
        if type(self.y_bound) is not int or type(self.denominator_bound) is not int:
            raise ValueError("bounds must be integers")
        if self.y_bound < 1 or self.denominator_bound < 1:
            raise ValueError("bounds must be >= 1")


@dataclass(frozen=True)
class BruteHit:
    x: int
    y: int
    sign: int
    strict: bool


def brute_solutions(d: int, z: int, box: SearchBox) -> list[BruteHit]:
    """All (x, y) with 0 <= y <= y_bound, x >= 0 and x^2 - d y^2 = +-z."""
    if type(d) is not int or type(z) is not int:
        raise ValueError("d and z must be integers")
    if not isinstance(box, SearchBox):
        raise ValueError(f"need a SearchBox, got {box!r}")
    if z < 1:
        raise ValueError("z must be >= 1")
    hits = []
    for y in range(box.y_bound + 1):
        t = d * y * y
        for sign in (1, -1):
            x2 = t + sign * z
            if x2 >= 0:
                x = isqrt(x2)
                if x * x == x2:
                    hits.append(BruteHit(x, y, sign, gcd(x, d * y) == 1))
    return hits


def _neg_pell_has_integral(d: int, y_bound: int) -> bool:
    for y in range(1, y_bound + 1):
        x2 = d * y * y - 1
        if isqrt(x2) ** 2 == x2:
            return True
    return False


def brute_xi(d: int, p: int, l_max: int, box: SearchBox) -> tuple[int, int, int, int] | None:
    """Smallest (l, then y) strictly primitive hit for |x^2-dy^2| = p^l.

    Applies the fundamental-solution sign convention: only the + equation
    competes when x^2 - d y^2 = -1 has an integral solution inside the box.
    """
    if not all(type(v) is int for v in (d, p, l_max)):
        raise ValueError("d, p and l_max must be integers")
    if not isinstance(box, SearchBox):
        raise ValueError(f"need a SearchBox, got {box!r}")
    plus_only = _neg_pell_has_integral(d, box.y_bound)
    signs = (1,) if plus_only else (1, -1)
    for l in range(1, l_max + 1):
        target = p**l
        for y in range(1, box.y_bound + 1):
            t = d * y * y
            for sign in signs:
                x2 = t + sign * target
                if x2 > 0:
                    x = isqrt(x2)
                    if x * x == x2 and x > 0 and gcd(x, d * y) == 1:
                        return l, x, y, sign
    return None


def brute_rational_pell(d: int, r: int, box: SearchBox) -> list[tuple[Fraction, Fraction]]:
    """All x = X/Z, y = Y/Z with gcd(X, Y, Z) = 1, Z <= denominator_bound,
    0 <= Y <= y_bound and X^2 - d Y^2 = (-1)^r Z^2."""
    if type(d) is not int or type(r) is not int:
        raise ValueError("d and r must be integers")
    if r not in (0, 1):
        raise ValueError("r must be 0 or 1")
    rhs_sign = -1 if r else 1
    points = []
    for z in range(1, box.denominator_bound + 1):
        zz = rhs_sign * z * z
        for y in range(box.y_bound + 1):
            x2 = d * y * y + zz
            if x2 >= 0:
                x = isqrt(x2)
                if x * x == x2 and gcd(gcd(x, y), z) == 1:
                    points.append((Fraction(x, z), Fraction(y, z)))
    return points


def tangent_bisector_check(a: Fraction, b: Fraction, c: Fraction) -> bool | None:
    """Geometric check that c (or its perpendicular partner -1/c) bisects the
    lines with slopes a and b, via exact tangent identities.

    Returns None when both branches have an undefined guard.
    """
    a, b, c = rational(a), rational(b), rational(c)

    def branch(slope: Fraction) -> bool | None:
        ga, gb = 1 + a * slope, 1 + b * slope
        if ga == 0 or gb == 0:
            return None
        return (slope - a) / ga == (b - slope) / gb

    first = branch(c)
    if first:
        return True
    second = branch(-1 / c) if c != 0 else None
    if second:
        return True
    if first is None and second is None:
        return None
    return False
