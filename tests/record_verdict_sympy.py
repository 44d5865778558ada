"""Record ``tests/data/verdict_sympy.json``: which |x^2 - d y^2| = z have a strictly
primitive solution, for every square-free 2 <= d < 100 and 2 <= z < 400, derived from
sympy alone.

A cell (d, z) is solvable when ``diop_DN(d, z)`` or ``diop_DN(d, -z)`` lists a solution
with gcd(x, d*y) = 1.  ``diop_DN`` gives one solution of each class, and a class is all
strict or none: gcd(x, y) is kept by a unit of norm 1, and gcd(x, d) = 1 holds on every
solution when gcd(z, d) = 1 and on none otherwise.  The file holds the grid bounds and
the solvable cells as [d, z] rows, sorted.

The recording takes about a minute and a half:

    python tests/record_verdict_sympy.py

``tests/test_verdict_sympy.py`` checks ``strict_exists`` on every cell of the grid and
re-derives a seeded sample of cells with ``sympy_solvable``.
"""

import json
from math import gcd
from pathlib import Path

from sympy.ntheory.factor_ import core
from sympy.solvers.diophantine.diophantine import diop_DN

DATA = Path(__file__).parent / "data" / "verdict_sympy.json"
D_BELOW, Z_FROM, Z_BELOW = 100, 2, 400
D_VALUES = tuple(d for d in range(2, D_BELOW) if core(d) == d)


def sympy_solvable(d: int, z: int) -> bool:
    return any(gcd(x, d * y) == 1 for n in (z, -z) for x, y in diop_DN(d, n))


def record() -> list[list[int]]:
    return [[d, z] for d in D_VALUES for z in range(Z_FROM, Z_BELOW) if sympy_solvable(d, z)]


if __name__ == "__main__":
    lines = [json.dumps(row, separators=(",", ":")) for row in record()]
    DATA.write_text(f'{{"d_below":{D_BELOW},"z_from":{Z_FROM},"z_below":{Z_BELOW},"solvable":[\n'
                    + ",\n".join(lines) + "\n]}\n", encoding="utf-8")
