"""Record ``tests/data/xi_sympy.json``: xi_p for every square-free d < 300
and every spectrum prime p <= 97, derived from sympy alone.

Each row is [d, p, l, x, y, norm_sign]: l is the least level for which
``diop_DN(d, +-p^l)`` has a solution with gcd(x, d*y) = 1, and (x, y) is the
minimal-y such solution with x > 0.  When x^2 - d y^2 = -1 is solvable only
the + equation competes, otherwise both do, + first on a tie in y.

Membership in the spectrum is decided without pellbisect: an odd p is in it
iff it splits (p does not divide d and d is a square mod p), and p = 2 iff
d = 1 mod 8, or d = 5 mod 8 and +-4 has a strict solution (the half-integral
unit).  A spectrum prime always has a level, so the search over l ends.

The recording takes about a minute:

    python tests/record_xi_sympy.py

``tests/test_xi_sympy.py`` checks ``xi`` against the file and re-derives a
seeded sample of rows with ``sympy_row``.
"""

import json
from itertools import count
from math import gcd
from pathlib import Path

from sympy import primerange
from sympy.ntheory.factor_ import core
from sympy.ntheory.residue_ntheory import is_quad_residue
from sympy.solvers.diophantine.diophantine import diop_DN

DATA = Path(__file__).parent / "data" / "xi_sympy.json"
D_VALUES = tuple(d for d in range(2, 300) if core(d) == d)
PRIMES = tuple(primerange(2, 98))


def _strict_minimal(d: int, n: int) -> tuple[int, int] | None:
    """(x, y) with x > 0 and y > 0 minimal among the strict solutions of x^2 - d y^2 = n."""
    hits = [(abs(y), abs(x)) for x, y in diop_DN(d, n) if y != 0 and gcd(x, d * y) == 1]
    if not hits:
        return None
    y, x = min(hits)
    return x, y


def _signs(d: int) -> tuple[int, ...]:
    return (1,) if diop_DN(d, -1) else (1, -1)


def _levels(d: int, p: int):
    """The levels to try, or () when p is outside the spectrum."""
    if p == 2:
        if d % 8 == 1:
            return count(1)
        return (2,) if d % 8 == 5 else ()
    return count(1) if d % p and is_quad_residue(d, p) else ()


def sympy_row(d: int, p: int) -> list[int] | None:
    """[d, p, l, x, y, norm_sign] of xi_p, or None when p is outside the spectrum."""
    signs = _signs(d)
    for l in _levels(d, p):
        # least y first, + before - on a tie
        found = [(xy[1], -sign, xy[0]) for sign in signs if (xy := _strict_minimal(d, sign * p**l))]
        if found:
            y, neg_sign, x = min(found)
            return [d, p, l, x, y, -neg_sign]
    return None


def record() -> list[list[int]]:
    return [row for d in D_VALUES for p in PRIMES if (row := sympy_row(d, p))]


if __name__ == "__main__":
    lines = [json.dumps(row, separators=(",", ":")) for row in record()]
    DATA.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
