import random
from math import prod

import pytest
from sympy import factorint

from pellbisect.arith import divisors, factorize, icbrt, is_prime, is_squarefree, strict_hits
from pellbisect.oracle import SearchBox, brute_solutions


def test_factor_helpers_match_sympy():
    for n in range(1, 20000):
        expected = factorint(n)
        assert factorize(n) == expected
        assert is_prime(n) == (expected == {n: 1})
        assert is_squarefree(n) == all(e == 1 for e in expected.values())
        divs = divisors(n)
        # strictly ascending divisors of n, as many as n has, are all of them
        assert all(n % q == 0 for q in divs)
        assert all(p < q for p, q in zip(divs, divs[1:]))
        assert len(divs) == prod(e + 1 for e in expected.values())


def test_factor_helpers_outside_positive_integers():
    assert not any(is_prime(n) for n in (-7, 0))
    assert not any(is_squarefree(n) for n in (-1, 0))
    with pytest.raises(ValueError):
        factorize(0)


def test_icbrt():
    rng = random.Random(5)
    cases = list(range(5000)) + [rng.randrange(10**k) for k in range(4, 300, 7)]
    for n in cases:
        c = icbrt(n)
        assert c**3 <= n < (c + 1) ** 3
    assert icbrt(10**60) == 10**20 and icbrt(10**60 - 1) == 10**20 - 1
    with pytest.raises(ValueError):
        icbrt(-1)


@pytest.mark.parametrize("d,n", [(2, 7), (5, 4), (13, 3), (34, 9), (34, 33)])
def test_strict_hits_match_oracle(d, n):
    expected = [
        (h.x, h.y, h.sign)
        for h in brute_solutions(d, n, SearchBox(y_bound=500))
        if h.strict and h.y > 0
    ]
    assert list(strict_hits(d, n, 500, (1, -1))) == expected
    plus = [hit for hit in expected if hit[2] == 1]
    assert list(strict_hits(d, n, 500, (1,))) == plus
