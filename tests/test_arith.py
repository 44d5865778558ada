import random
from math import gcd, isqrt, prod

import pytest
from sympy import factorint, isprime, primerange

from pellbisect.arith import _BLOCK, divisors, factorize, is_prime, is_squarefree, primes_upto, rational, strict_hits
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


def _matches_sympy(n, expected):
    got = factorize(n)
    return (got == expected and list(got) == sorted(got) and is_prime(n) == isprime(n)
            and is_squarefree(n) == all(e == 1 for e in expected.values()))


def test_factor_helpers_match_sympy_at_the_table_edge():
    """factorize divides by the primes below 10^4 (the last is 9973) and hands a cofactor of
    at least 10001^2 on to 6k +- 1 from 10001; these n sit on both sides of that hand-over."""
    edge = (9973, 10007, 10009)
    ns = {p**e for p in edge for e in (1, 2, 3)} | {p * q for p in edge for q in edge} | {prod(edge)}
    ns |= {p * q for p in (2, 3, 97, 9949, 9967, 9973) for q in (10007, 10009, 1000003, 100000007)}
    ns |= set(range(10**4 - 49, 10**4 + 50))
    for n in sorted(ns):
        assert _matches_sympy(n, factorint(n)), n


def test_factor_helpers_match_sympy_at_every_block_edge():
    """factorize skips a block of _BLOCK table primes when its product is coprime to what is
    left of n; these n put a prime at each end of every block, square it, span a block from
    end to end or straddle two adjacent blocks, alone and times 10007, past the table."""
    primes = primes_upto(10_000)
    blocks = [primes[k : k + _BLOCK] for k in range(0, len(primes), _BLOCK)]
    ends = [p for block in blocks for p in (block[0], block[-1])]
    ns = {p**e for p in ends for e in (1, 2)} | {block[0] * block[-1] for block in blocks}
    ns |= {left[-1] * right[0] for left, right in zip(blocks, blocks[1:])}
    ns |= {n * 10007 for n in ns}
    for n in sorted(ns):
        assert _matches_sympy(n, factorint(n)), n


def test_factor_helpers_match_sympy_on_seeded_large_n():
    """1000 seeded n < 10^12 whose second-largest prime factor is below 10^5 and whose largest
    is below 10^9, so trial division stops below 31 623 and stays fast."""
    rng, checked = random.Random(24), 0
    while checked < 1000:
        n = rng.randrange(2, 10**12)
        expected = factorint(n)
        ps = sorted(expected)
        if ps[-1] < 10**9 and (len(ps) == 1 or ps[-2] < 10**5):
            assert _matches_sympy(n, expected), n
            checked += 1


@pytest.mark.parametrize("n", [0, 1, 2, 9972, 9973, 10000, 10007, 20000])
def test_primes_upto_matches_sympy(n):
    assert primes_upto(n) == list(primerange(2, n + 1))


def test_factor_helpers_outside_positive_integers():
    assert not any(is_prime(n) for n in (-7, 0))
    assert not any(is_squarefree(n) for n in (-1, 0))
    with pytest.raises(ValueError):
        factorize(0)


def test_rational_refuses_a_bool():
    """True and False are no numbers here, as require_ints refuses them where an integer comes in."""
    for v in (True, False):
        with pytest.raises(ValueError, match=f"^need a rational number, got {v}$"):
            rational(v)


@pytest.mark.parametrize("d,n", [(2, 7), (5, 4), (13, 3), (34, 9), (34, 33), (113, 100408)])
def test_strict_hits_match_oracle(d, n):
    expected = [
        (h.x, h.y, h.sign)
        for h in brute_solutions(d, n, SearchBox(y_bound=2000))
        if h.strict and h.y > 0
    ]
    assert expected  # 113 and 100408 have 12, of both signs, the last at y = 1913
    assert list(strict_hits(d, n, 2000, (1, -1))) == expected
    plus = [hit for hit in expected if hit[2] == 1]
    assert list(strict_hits(d, n, 2000, (1,))) == plus


def _naive_hits(d, n_stop, y_max):
    """{n: [(x, y, sign), ...]} for 1 <= n < n_stop, found by walking x
    around sqrt(d) y for each y, in strict_hits' order: y, then + before -."""
    hits = {}
    for y in range(1, y_max + 1):
        t = d * y * y
        for x in range(isqrt(max(t - n_stop, 0)), isqrt(t + n_stop) + 2):
            diff = x * x - t
            if x > 0 and 0 < abs(diff) < n_stop and gcd(x, d * y) == 1:
                hits.setdefault(abs(diff), []).append((x, y, 1 if diff > 0 else -1))
    for found in hits.values():
        found.sort(key=lambda h: (h[1], -h[2]))
    return hits


@pytest.mark.parametrize("d", [d for d in range(2, 131) if is_squarefree(d)])
def test_strict_hits_parity_sweep(d):
    """Every n in [2, 150) against a naive walk over x, for both sign tuples and
    y bounds 0, 1, 40, 63, 64, 65, 97 and 300; small y leaves -n with no x at all.
    The square-free d < 131 meet every class mod 64 that a square-free d can take,
    and the n every class mod 64, so every pair of mod-64 screen tables is read from
    y = 1 on, across several periods of y^2 mod 64 (32 in y)."""
    naive = _naive_hits(d, 150, 300)
    for n in range(2, 150):
        every = naive.get(n, [])
        for y_bound in (0, 1, 40, 63, 64, 65, 97, 300):
            both = [h for h in every if h[1] <= y_bound]
            assert list(strict_hits(d, n, y_bound, (1, -1))) == both, (d, n, y_bound)
            assert list(strict_hits(d, n, y_bound, (1,))) == [h for h in both if h[2] == 1]


def test_strict_hits_rejects_other_signs_and_moduli():
    for signs in ((-1,), (-1, 1), (1, 1), ()):
        with pytest.raises(ValueError, match="signs"):
            next(strict_hits(2, 7, 10, signs))
    with pytest.raises(ValueError, match="n >= 1"):
        next(strict_hits(2, 0, 10, (1, -1)))
