"""xi against a second oracle: sympy's ``diop_DN``, where brute force over a
box cannot reach.

``tests/data/xi_sympy.json`` holds one row [d, p, l, x, y, norm_sign] for
every square-free d < 300 and every spectrum prime p <= 97, recorded by
``tests/record_xi_sympy.py`` from sympy alone.  ``xi`` is checked on every
row with d < 100; the rows above that are left out for time only, since a
few of them take seconds in today's y-scan.  A seeded sample of rows is
derived again from sympy, so the file stays tied to its source.
"""

import json
import random

import pytest
from record_xi_sympy import DATA, D_VALUES, PRIMES, sympy_row

from pellbisect.pellcore import make_context, xi

ROWS = json.loads(DATA.read_text(encoding="utf-8"))
XI_DMAX = 100


def test_the_rows_are_sorted_and_in_range():
    keys = [(d, p) for d, p, *_ in ROWS]
    assert keys == sorted(set(keys))
    assert {d for d, _ in keys} <= set(D_VALUES) and {p for _, p in keys} <= set(PRIMES)


@pytest.mark.parametrize("d", [d for d in D_VALUES if d < XI_DMAX])
def test_xi_matches_sympy(d):
    ctx = make_context(d)
    expected = {row[1]: row for row in ROWS if row[0] == d}
    for p in PRIMES:
        e = xi(ctx, p)
        assert (None if e is None else [d, p, e.l, e.x, e.y, e.norm_sign]) == expected.get(p), (d, p)


def test_seeded_rows_rederive_from_sympy():
    for row in random.Random(3).sample(ROWS, 50):
        assert sympy_row(*row[:2]) == row
