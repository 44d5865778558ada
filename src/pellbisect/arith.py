"""Integer helpers: the readers of numbers that come in, factorization and the tests
derived from it, a deterministic primality test, squares, small primes, the Legendre
symbol, and the one bounded y-scan for strictly primitive solutions of |x^2 - d y^2| = n."""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod
from operator import itemgetter


def require_ints(**values: int) -> None:
    """ValueError unless each value is an int; a bool, or a float equal to an integer, is refused too."""
    for name, v in values.items():
        if type(v) is not int:
            raise ValueError(f"{name} must be an integer, got {v!r}")


def rational(v) -> Fraction:
    """v if it is a Fraction, else Fraction(v); ValueError for a bool and where Fraction fails (None, inf, "x")."""
    if type(v) is Fraction:
        return v
    try:
        if type(v) is bool:
            raise TypeError("bool is not a rational number")
        return Fraction(v)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as e:
        raise ValueError(f"need a rational number, got {v!r}") from e


def primes_upto(n: int) -> list[int]:
    """The primes up to n, ascending: for n <= 10^4 a slice of the table below, else by a sieve."""
    if n <= 10_000:
        return list(_PRIMES[: bisect_right(_PRIMES, n)])
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [p for p in range(2, n + 1) if sieve[p]]


# the 1229 primes below 10^4 (2 to 9973), sieved once (10001 = 73 * 137); for factorize, each with the square
# that ends the division by it, as (product, primes) blocks of _BLOCK; the first block's product is 0, so it
# is never skipped: most n have a factor there
_PRIMES = tuple(primes_upto(10_001))
_BLOCK = 32
_SMALL_PRIMES = tuple((p, p * p) for p in _PRIMES)
_PRIME_BLOCKS = tuple((prod(p for p, _ in block) if k else 0, block)
                      for k in range(0, len(_SMALL_PRIMES), _BLOCK) for block in [_SMALL_PRIMES[k : k + _BLOCK]])


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division, {p: exponent} in increasing p: by the primes
    below 10^4, skipping a block of them whose product is coprime to what is left of n
    (Bernstein, "How to find smooth parts of integers", 2004), then by 6k +- 1 from 10001
    for a cofactor of at least 10001^2."""
    if n <= 0:
        raise ValueError("factorize wants a positive integer")
    out: dict[int, int] = {}
    for block_product, block in _PRIME_BLOCKS:
        if block_product and gcd(n, block_product) == 1:
            if block[0][1] > n:  # what is left is 1 or a prime
                break
            continue
        for p, square in block:
            if square > n:
                break
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        else:
            continue
        break  # a square passed n inside the block: what is left is 1 or a prime
    else:
        f = 10_001
        while f * f <= n:
            for p in (f, f + 2):
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
            f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981  # the least composite that passes every base of _MR_BASES


@lru_cache(maxsize=4096)
def is_prime(n: int) -> bool:
    """The table below 10^4, deterministic Miller-Rabin on the 13 primes up to 41 below _MR_BOUND (Sorenson
    and Webster, Math. Comp. 86, 2017; 12 bases admit 318665857834031151167461), else factorize(n) == {n: 1}."""
    if n <= _PRIMES[-1]:  # for n < 2 the index -1 reads 9973, not n
        return _PRIMES[bisect_right(_PRIMES, n) - 1] == n
    if n >= _MR_BOUND:
        return factorize(n) == {n: 1}
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s with d odd
    d = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, n)  # a strong probable prime to base a: x = 1, or some x^(2^r) = -1 with r < s
        if x != 1 and not any(pow(x, 1 << r, n) == n - 1 for r in range(s)):
            return False
    return True


@lru_cache(maxsize=4096)
def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [q * p**k for q in out for k in range(e + 1)]
    return sorted(out)


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p: 1, -1 or 0."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


_Y2_MOD_64 = tuple(y * y % 64 for y in range(32))  # y^2 mod 64 has period 32 in y
_IS_SQUARE_MOD_64 = tuple(r % 64 in _Y2_MOD_64 for r in range(128))  # twice, so [k : k + 64][r] is r + k's
_SHIFTED_SQUARES_MOD_64 = tuple(_IS_SQUARE_MOD_64[k : k + 64] for k in range(64))  # [k][r]: is r + k a square
# by d mod 64, the getter of the residues d y^2 mod 64 for y = 0..31
_DY2_MOD_64 = tuple(itemgetter(*(d * s % 64 for s in _Y2_MOD_64)) for d in range(64))


def strict_hits(
    d: int, n: int, y_bound: int, signs: tuple[int, ...]
) -> Iterator[tuple[int, int, int]]:
    """Every (x, y, sign) with x^2 - d y^2 = sign * n, x > 0, 1 <= y <= y_bound and
    gcd(x, d y) = 1, by ascending y, + before -; n >= 1 and signs is (1,) or (1, -1).
    A y pays an isqrt only if d y^2 +- n is a square mod 64. That is exact, as a solution
    makes d y^2 +- n = x^2; y^2 mod 64 has period 32 in y, so a 32-entry table per sign
    decides (Cohen, GTM 138, 1.7.2)."""
    if n < 1 or signs not in ((1,), (1, -1)):
        raise ValueError(f"strict_hits wants n >= 1 and signs (1,) or (1, -1), got {n}, {signs}")
    residues, k = _DY2_MOD_64[d % 64], n % 64
    plus = residues(_SHIFTED_SQUARES_MOD_64[k])
    less = residues(_SHIFTED_SQUARES_MOD_64[-k % 64]) if len(signs) == 2 else (False,) * 32
    t, step, d2 = 0, d, 2 * d  # t = d y^2, stepped by d (2y - 1)
    for y in range(1, y_bound + 1):
        t, step = t + step, step + d2
        r = y & 31
        if plus[r]:
            x2 = t + n
            x = isqrt(x2)
            if x * x == x2 and gcd(x, d * y) == 1:
                yield x, y, 1
        if less[r] and t > n:
            x2 = t - n
            x = isqrt(x2)
            if x * x == x2 and gcd(x, d * y) == 1:
                yield x, y, -1
