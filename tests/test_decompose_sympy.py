"""strict_exists and decompose_strict against a second oracle: sympy's
``diop_DN``, which lists one fundamental solution of x^2 - d y^2 = N for every
class under the units of Z[sqrt(d)].

Strict primitivity, gcd(x, d*y) = 1, is the same for every member of a class,
so |x^2 - d y^2| = z has a strictly primitive solution exactly when one of the
listed solutions for N = z or N = -z is strictly primitive.  Each such
solution must decompose and evaluate back to itself.

The moduli are seeded 97-smooth z < 10^5 on the eight table d: uniform ones,
mostly without a solution, and products of powers of primes that split,
which reach the xi powers, p = 2 and the core.
"""

import random
from functools import cache
from math import gcd

import pytest
from sympy.ntheory.residue_ntheory import is_quad_residue
from sympy.solvers.diophantine.diophantine import diop_DN

from pellbisect.arith import factorize, primes_upto
from pellbisect.pellcore import make_context, spectrum
from pellbisect.solver import decompose_strict, evaluate_representation, strict_exists

TABLE_D = (2, 5, 10, 13, 17, 26, 29, 34)
ZMAX = 10**5


def _moduli(d):
    rng = random.Random(d)
    split = [p for p in primes_upto(97) if d % p and (p == 2 or is_quad_residue(d, p))]
    out = []
    while len(out) < 1:
        z = rng.randrange(2, ZMAX)
        if max(factorize(z)) <= 97:
            out.append(z)
    while len(out) < 3:
        z = 1
        for p in rng.sample(split, rng.randint(2, 3)):
            z *= p ** rng.randint(1, 3)
        if z < ZMAX:
            out.append(z)
    return out


@cache
def _strict_solutions(d, z):
    return [(x, y) for n in (z, -z) for x, y in diop_DN(d, n) if gcd(x, d * y) == 1]


@pytest.mark.parametrize("d", TABLE_D)
def test_strict_solutions_from_sympy_round_trip(d):
    ctx = make_context(d)
    spec = spectrum(ctx, 97)
    for z in _moduli(d):
        sols = _strict_solutions(d, z)
        assert strict_exists(ctx, spec, z).exists == bool(sols), (d, z)
        for x, y in sols:
            elem = evaluate_representation(decompose_strict(ctx, spec, x, y))
            assert (elem.a, elem.b) == (x, y), (d, z)


def test_the_seeded_moduli_reach_both_verdicts():
    verdicts = {bool(_strict_solutions(d, z)) for d in (2, 34) for z in _moduli(d)}
    assert verdicts == {True, False}
