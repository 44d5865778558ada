"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Elements are a + b*sqrt(d) with rational coordinates over a fixed square-free
d > 1.  Everything is exact: no floating point anywhere, comparisons against
sqrt(d) go through integer square roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .arith import is_squarefree, rational

_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


class NotSquareFreeError(ValueError):
    """Field index d must be a square-free integer > 1."""


class FieldMismatchError(ValueError):
    """Operands live in different quadratic fields."""


class InvariantError(RuntimeError):
    """A self-check on a computed result failed: a defect, not a bad input."""


def check_field_index(d: int) -> int:
    if not isinstance(d, int) or d <= 1 or not is_squarefree(d):
        raise NotSquareFreeError(f"need a square-free integer > 1, got {d}")
    return d


@dataclass(frozen=True)
class QuadElem:
    """a + b*sqrt(d), immutable, with canonical reduced coordinates."""

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        check_field_index(self.d)
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))

    @classmethod
    def from_int_pair(cls, d: int, x: int, y: int) -> QuadElem:
        return cls(d, x, y)

    @staticmethod
    def _of(d: int, a: Fraction, b: Fraction) -> QuadElem:
        """Result of arithmetic on validated operands: d is already checked
        and a, b are already Fractions, so both checks are skipped."""
        elem = object.__new__(QuadElem)
        elem.__dict__.update(d=d, a=a, b=b)
        return elem

    def _check_same_field(self, other: QuadElem) -> None:
        if self.d != other.d:
            raise FieldMismatchError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")

    def __add__(self, other: QuadElem | int | Fraction) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem._of(self.d, self.a + other, self.b)
        if isinstance(other, QuadElem):
            self._check_same_field(other)
            return QuadElem._of(self.d, self.a + other.a, self.b + other.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QuadElem:
        return QuadElem._of(self.d, -self.a, -self.b)

    def __sub__(self, other: QuadElem | int | Fraction) -> QuadElem:
        return self + (-other)

    def __rsub__(self, other: int | Fraction) -> QuadElem:
        return (-self) + other

    def __mul__(self, other: QuadElem | int | Fraction) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem._of(self.d, self.a * other, self.b * other)
        if isinstance(other, QuadElem):
            self._check_same_field(other)
            x, y, m = _mul_scaled(self.d, *self.scaled_coords(), *other.scaled_coords())
            return QuadElem._of(self.d, Fraction(x, m), Fraction(y, m))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: QuadElem | int | Fraction) -> QuadElem:
        if isinstance(other, (int, Fraction)):
            return QuadElem._of(self.d, self.a / other, self.b / other)
        if isinstance(other, QuadElem):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k: int) -> QuadElem:
        if type(k) is int and k == 1:
            return self
        x, y, m = _pow_scaled(self.d, *self.scaled_coords(), k)
        return QuadElem._of(self.d, Fraction(x, m), Fraction(y, m))

    def inverse(self) -> QuadElem:
        return self**-1

    def conj(self) -> QuadElem:
        return QuadElem._of(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        x, y, m = self.scaled_coords()
        return Fraction(x * x - self.d * y * y, m * m)

    def scaled_coords(self) -> tuple[int, int, int]:
        """(x, y, m) with self = (x + y*sqrt(d))/m and m the least common denominator."""
        return _clear_pair(self.a, self.b)

    def int_coords(self) -> tuple[int, int]:
        """(x, y) as plain integers; raises if not in Z[sqrt(d)]."""
        if self.a.denominator != 1 or self.b.denominator != 1:
            raise ValueError(f"{self} does not have integer coordinates")
        return int(self.a), int(self.b)

    def __str__(self) -> str:
        return render(self)

    def __repr__(self) -> str:
        return f"QuadElem(d={self.d}, {self.a}, {self.b})"


def _clear_pair(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    """(x, y, m) with a = x/m, b = y/m and m > 0 their least common denominator: the one place a
    rational pair is cleared to integers, for elements, the solver's peel and the bisector."""
    m = lcm(a.denominator, b.denominator)
    return a.numerator * (m // a.denominator), b.numerator * (m // b.denominator), m


def _mul_scaled(d: int, x1: int, y1: int, m1: int, x2: int, y2: int, m2: int) -> tuple[int, int, int]:
    """(x1 + y1*sqrt(d))/m1 * (x2 + y2*sqrt(d))/m2 as a triple (x, y, m) in lowest terms."""
    x, y, m = x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2, m1 * m2
    g = gcd(m, x, y)
    return x // g, y // g, m // g


def _pow_scaled(d: int, x: int, y: int, m: int, k: int) -> tuple[int, int, int]:
    """((x + y*sqrt(d))/m)^k by left-to-right square-and-multiply on integer triples,
    as a triple (x, y, m) in lowest terms with m > 0."""
    if type(k) is not int:
        raise ValueError(f"exponent must be an integer, got {k!r}")
    if k < 0:  # start from the conjugate over the norm
        n = x * x - d * y * y
        if n == 0:
            raise ZeroDivisionError("zero-norm element has no inverse")
        x, y, m, k = m * x, -m * y, n, -k
    if k == 0:
        return 1, 0, 1
    base = x, y, m
    for bit in bin(k)[3:]:
        x, y, m = _mul_scaled(d, x, y, m, x, y, m)
        if bit == "1":
            x, y, m = _mul_scaled(d, x, y, m, *base)
    g = gcd(m, x, y) if m > 0 else -gcd(m, x, y)  # m first: gcd stops at a 1 before the big coordinates
    return x // g, y // g, m // g


def exact_div(alpha: QuadElem, beta: QuadElem) -> QuadElem | None:
    """gamma in the ring of integers O_K with beta*gamma == alpha, else None.  With
    alpha = (x1 + y1*sqrt(d))/m1, beta = (x2 + y2*sqrt(d))/m2 and N = x2^2 - d*y2^2, the
    pair h*m2*(x1 + y1*sqrt(d))*(x2 - y2*sqrt(d))/(m1*N) = (s, t) must be integral, where
    h = 2 and s = t mod 2 admit the halves of O_K when d = 1 mod 4, and h = 1 otherwise."""
    if not isinstance(alpha, QuadElem) or not isinstance(beta, QuadElem):
        raise ValueError(f"exact_div wants two QuadElems, got {alpha!r} and {beta!r}")
    x2, y2, m2 = beta.scaled_coords()
    n = x2 * x2 - beta.d * y2 * y2
    if n == 0:
        raise ZeroDivisionError("zero-norm element has no inverse")
    alpha._check_same_field(beta)
    d = alpha.d
    x1, y1, m1 = alpha.scaled_coords()
    h = 2 if d % 4 == 1 else 1
    s, rs = divmod(h * m2 * (x1 * x2 - d * y1 * y2), m1 * n)
    t, rt = divmod(h * m2 * (y1 * x2 - x1 * y2), m1 * n)
    return None if rs or rt or (s - t) % h else QuadElem._of(d, Fraction(s, h), Fraction(t, h))


def _int_part_str(x: int, y: int, d: int, ascii_mode: bool) -> str:
    root = f"sqrt({d})" if ascii_mode else f"√{d}"
    if y == 0:
        return str(x)
    coeff = "" if abs(y) == 1 else (f"{abs(y)}*" if ascii_mode else str(abs(y)))
    ypart = f"{coeff}{root}"
    if x == 0:
        return ypart if y > 0 else f"-{ypart}"
    sign = "+" if y > 0 else "-"
    return f"{x}{sign}{ypart}"


def render(alpha: QuadElem, ascii_mode: bool = False) -> str:
    """Textual form like "35+6√34" or "(1+√5)/2", reduced."""
    if not isinstance(alpha, QuadElem):
        raise ValueError(f"render wants a QuadElem, got {alpha!r}")
    x, y, lcd = alpha.scaled_coords()
    core = _int_part_str(x, y, alpha.d, ascii_mode)
    if lcd == 1:
        return core
    return f"({core})/{lcd}"


def render_rat(q: Fraction) -> str:
    """Reduced "p/q" with positive denominator, integers without "/1"."""
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_signed_power(sign: int, p: int, l: int, ascii_mode: bool = False) -> str:
    """Signed prime power, e.g. -3^2 (ascii) or -3²."""
    body = str(p) if l == 1 else (f"{p}^{l}" if ascii_mode else f"{p}{str(l).translate(_SUPERSCRIPTS)}")
    return body if sign > 0 else f"-{body}"
