"""End-to-end acceptance checks, one test per criterion.

Each test prints a [criterion N] PASS line on success (run with -s to see
them); every assertion is exact, no tolerances anywhere.
"""

import random
import time
from fractions import Fraction as F
from math import gcd, isqrt
from pathlib import Path

import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

from pellbisect.bisector import (
    case1_generate,
    case2_generate,
    integral_generate,
    integral_generate2,
    verify_star,
)
from pellbisect.cli import run_table
from pellbisect.oracle import (
    SearchBox,
    brute_rational_pell,
    brute_solutions,
    tangent_bisector_check,
)
from pellbisect.arith import is_squarefree
from pellbisect.pellcore import make_context, pell_sequence, spectrum
from pellbisect.quadfield import QuadElem
from pellbisect.rationalpell import RationalPellPoint, decompose_rational, generate_rational
from pellbisect.solver import (
    decompose_square,
    decompose_strict,
    evaluate_representation,
    strict_exists,
)

DATA = Path(__file__).parent / "data"
TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)


def _report(n, detail=""):
    print(f"[criterion {n}] PASS {detail}".rstrip())


def ctx_spec(d, pmax=97):
    ctx = make_context(d)
    return ctx, spectrum(ctx, pmax)


def test_criterion_1_reference_table_reproduction():
    started = time.monotonic()
    produced = run_table(format="csv", ascii_mode=True)
    golden = (DATA / "reference_table.csv").read_text()
    produced_rows = produced.splitlines()
    golden_rows = golden.splitlines()
    assert len(produced_rows) == len(golden_rows)
    for mine, theirs in zip(produced_rows, golden_rows):
        assert mine == theirs, f"row mismatch: {mine!r} != {theirs!r}"
    assert produced == golden
    _report(1, f"(all {len(golden_rows)} rows byte-identical, {time.monotonic()-started:.1f}s)")


def test_criterion_2_worked_examples():
    assert verify_star(F(3, 4), F(12, 5), F(9, 7))
    assert verify_star(F(1, 7), F(23, 7), F(6, 7))
    assert verify_star(F(1), F(7), F(2))

    t1, t2 = case1_generate(2, 3, 1)
    assert (t1.a, t1.b, t1.c, t2.c) == (F(3, 4), F(4, 3), F(1), F(-1))
    t1, t2 = case1_generate(2, 5, 1)
    assert (t1.a, t1.b, t1.c, t2.c) == (F(3, 4), F(12, 5), F(9, 7), F(-7, 9))

    ctx2 = make_context(2)
    alpha = QuadElem(2, F(1, 7), F(5, 7))
    t1, t2 = case2_generate(ctx2, alpha, ctx2.eta**2 * alpha)
    assert (t1.a, t1.b, t1.c, t2.c) == (F(1, 7), F(23, 7), F(6, 7), F(-7, 6))

    ctx34 = make_context(34)
    alpha = QuadElem(34, F(5, 3), F(1, 3))
    t1, t2 = case2_generate(ctx34, alpha, ctx34.eta * alpha)
    assert (t1.a, t1.b, t1.c, t2.c) == (F(5, 3), F(379, 3), F(32, 9), F(-9, 32))

    t = integral_generate(ctx2, 1, 1)
    assert (t.a, t.b, t.c) == (1, 7, 2)
    _report(2)


def test_criterion_3_d34_square_example():
    started = time.monotonic()
    d, z = 34, 165
    ctx, spec = ctx_spec(d)
    shapes = {
        (55, (3,)): "xi3 * 5 * 11",
        (33, (5,)): "3 * xi5 * 11",
        (15, (11,)): "3 * 5 * xi11",
        (1, (3, 5, 11)): "xi3 * xi5 * xi11",
    }
    hits = [
        h for h in brute_solutions(d, z * z, SearchBox(10_000)) if h.sign == -1 and h.y > 0
    ]
    assert hits, "expected brute solutions for x^2 - 34 y^2 = -165^2"
    seen_shapes = set()
    for h in hits:
        rep = decompose_square(ctx, spec, h.x, h.y)
        key = (int(rep.scale), tuple(t.p for t in rep.terms))
        assert key in shapes, f"({h.x}, {h.y}) decomposed outside the four shapes: {key}"
        assert rep.core is None
        assert evaluate_representation(rep) == QuadElem.from_int_pair(d, h.x, h.y)
        seen_shapes.add(key)
    assert seen_shapes == set(shapes), f"missing shapes: {set(shapes) - seen_shapes}"

    # conversely: every shape instance with |n| <= 2 solves the equation
    brute_pairs = {(h.x, h.y) for h in hits}
    from pellbisect.solver import Representation, XiPower

    count = 0
    for key, scale_primes in ((k, k) for k in shapes):
        scale, primes = key
        for mask in range(2 ** len(primes)):
            terms = tuple(
                XiPower(p=p, exp=1, conj=bool(mask >> i & 1)) for i, p in enumerate(primes)
            )
            for n in range(-2, 3):
                for sign in (1, -1):
                    rep = Representation(
                        d=d, sign=sign, n=n, terms=terms, scale=F(scale)
                    )
                    val = evaluate_representation(rep)
                    x, y = val.int_coords()
                    assert x * x - d * y * y == -z * z
                    if abs(y) <= 10_000:
                        assert (abs(x), abs(y)) in brute_pairs
                    count += 1
    _report(3, f"({len(hits)} brute hits, {count} generated shapes, {time.monotonic()-started:.1f}s)")


def _strict_hits_by_modulus(d, y_bound, z_max):
    """One sweep of 1 <= y <= y_bound: every strictly primitive (x, y) with
    x >= 0 and 1 < |x^2 - d y^2| <= z_max, bucketed by that modulus.  It
    finds the same hits as brute_solutions(d, z, box) cell by cell."""
    buckets = {z: [] for z in range(2, z_max + 1)}
    for y in range(1, y_bound + 1):
        t = d * y * y
        for x in range(isqrt(max(t - z_max, 0)), isqrt(t + z_max) + 1):
            z = abs(x * x - t)
            if 1 < z <= z_max and gcd(x, d * y) == 1:
                buckets[z].append((x, y))
    return buckets


def test_criterion_4_oracle_equivalence():
    started = time.monotonic()
    y_bound = 10_000
    checked = roundtrips = 0
    for d in range(2, 31):
        if not is_squarefree(d):
            continue
        ctx, spec = ctx_spec(d)
        buckets = _strict_hits_by_modulus(d, y_bound, 100)
        if d in (2, 13, 30):  # the sweep against the oracle, a few cells
            for z in (4, 36, 49, 91, 97):
                brute = [(h.x, h.y) for h in brute_solutions(d, z, SearchBox(y_bound))
                         if h.strict and h.y > 0]
                assert sorted(brute) == sorted(buckets[z]), (d, z)
        for z in range(2, 101):
            strict_hits = buckets[z]
            verdict = strict_exists(ctx, spec, z)
            assert verdict.exists == bool(strict_hits), (d, z)
            checked += 1
            for x, y in strict_hits:
                rep = decompose_strict(ctx, spec, x, y)
                assert evaluate_representation(rep) == QuadElem.from_int_pair(d, x, y)
                roundtrips += 1
    _report(4, f"({checked} (d,z) cells, {roundtrips} exact round-trips, {time.monotonic()-started:.0f}s)")


def _strictly_primitive(d, elem):
    x, y = elem.int_coords()
    return gcd(x, d * y) == 1


def _closure_cases():
    cases = []
    for d in TABLE_DS:
        entries = spectrum(make_context(d), 31).entries
        for i, e1 in enumerate(entries):
            for e2 in entries[i + 1 :]:
                for i1 in (1, 2):
                    for i2 in (1, 2):
                        broken = (e1.p == 2 and i1 == 2) or (e2.p == 2 and i2 == 2)
                        cases.append(
                            pytest.param(
                                d, e1.p, i1, e2.p, i2,
                                marks=pytest.mark.xfail(
                                    strict=True,
                                    reason="squaring the p=2 element forces even "
                                    "coordinates when d = 1 mod 4 (e.g. (3+√5)^2 "
                                    "= 14+6√5), so strict primitivity is lost",
                                )
                                if broken
                                else (),
                                id=f"d{d}-{e1.p}^{i1}-{e2.p}^{i2}",
                            )
                        )
    return cases


@pytest.mark.parametrize("d,p,i,q,j", _closure_cases())
def test_criterion_5_closure_products(d, p, i, q, j):
    ctx = make_context(d)
    spc = spectrum(ctx, 31)
    e1, e2 = spc.get(p), spc.get(q)
    prod = e1.elem**i * e2.elem**j
    assert abs(prod.norm()) == p ** (e1.l * i) * q ** (e2.l * j)
    assert _strictly_primitive(d, prod)


def _same_class(d, x, y, u, v):
    """(x, y) and (u, v) solve x^2 - d y^2 = n for one n, and their quotient is a unit of Z[sqrt(d)]."""
    n = x * x - d * y * y
    return (x * u - d * y * v) % n == 0 and (x * v - y * u) % n == 0


@pytest.mark.parametrize("d", (5, 13, 17, 29))
def test_criterion_5_closure_products_in_o_k(d):
    """The closure claim at p = 2 as the solver uses it, beside the Z[sqrt(d)] rows above.
    For d = 1 mod 8 the 2-part is 2 (xi_2/2)^i, a rung of the xi_2/2 ladder in O_K, with
    |N| = 2^(2 + (l_2 - 2) i); for d = 5 mod 8, xi_2 is 2 times a unit of O_K, and one xi_2
    is all a strictly primitive solution holds: 2^4 q^(l j) has none (sympy's diop_DN).
    Each product with xi_q^j is strictly primitive and lies in a class diop_DN lists."""
    ctx = make_context(d)
    spc = spectrum(ctx, 31)
    xi2 = spc.get(2)
    half = xi2.elem / 2
    assert d % 8 in (1, 5) and xi2.l == (3 if d % 8 == 1 else 2) and (d % 8 == 1 or abs(half.norm()) == 1)
    for e in spc.entries[1:]:
        for i in (1, 2):
            for j in (1, 2):
                modulus = e.p ** (e.l * j)
                if d % 8 == 5 and i == 2:
                    assert not any(gcd(x, d * y) == 1 for n in (16 * modulus, -16 * modulus) for x, y in diop_DN(d, n))
                    continue
                two_part = 2 * half**i if d % 8 == 1 else xi2.elem
                prod = two_part * e.elem**j
                assert abs(prod.norm()) == 2 ** (2 + (xi2.l - 2) * i) * modulus
                assert _strictly_primitive(d, prod)
                x, y = prod.int_coords()
                assert any(_same_class(d, x, y, u, s * v) for u, v in diop_DN(d, x * x - d * y * y) for s in (1, -1))
    _report(5, f"(p = 2 closure in O_K for d = {d}, checked against diop_DN)")


def test_criterion_5_unit_flip():
    for d in TABLE_DS:
        ctx = make_context(d)
        if not ctx.neg_pell_integral:
            continue
        for e in spectrum(ctx, 31).entries:
            flipped = e.elem * ctx.eps
            assert flipped.norm() == -e.elem.norm()
            assert _strictly_primitive(d, flipped)
    _report(5, "(products, powers and unit flips exact; p=2 squares xfail as documented)")


def test_criterion_6_rational_completeness():
    started = time.monotonic()
    box = SearchBox(y_bound=3000, denominator_bound=50)
    total = 0
    for d in (2, 5, 13, 34):
        ctx, spec = ctx_spec(d)
        s_minus = spec.s_minus
        for x, y in brute_rational_pell(d, 1, box):
            pt = RationalPellPoint(d, x, y, 1)
            rep = decompose_rational(ctx, spec, pt)
            back = generate_rational(ctx, spec, rep)
            assert (back.x, back.y, back.r) == (x, y, 1)
            if ctx.neg_pell_integral:
                assert rep.n % 2 == 1
            else:
                minus_total = sum(t.exp for t in rep.terms if t.p in s_minus)
                if rep.core is not None:
                    cx, cy = rep.core.x, rep.core.y
                    if cx * cx - d * cy * cy < 0:
                        minus_total += 1
                assert minus_total % 2 == 1
            total += 1
    assert total > 100
    _report(6, f"({total} points round-tripped with exact parity, {time.monotonic()-started:.0f}s)")


def test_criterion_7_bisector_soundness():
    rng = random.Random(20250809)
    produced = 0
    while produced < 300:
        l, m, n = (rng.randint(-9, 9) for _ in range(3))
        if abs(l) == abs(m) or l * m == n * n or l * m * n == 0:
            continue
        t1, t2 = case1_generate(l, m, n)
        for t in (t1, t2):
            assert verify_star(t.a, t.b, t.c)
        assert t1.c * t2.c == -1
        for t in (t1, t2):
            oracle_verdict = tangent_bisector_check(t.a, t.b, t.c)
            if oracle_verdict is not None:
                assert oracle_verdict
        produced += 2

    pool = []
    for d in TABLE_DS:
        ctx = make_context(d)
        spc = spectrum(ctx, 31)
        if ctx.neg_pell_integral:
            base = ctx.eta
        else:
            seed = next(e for e in spc.entries if e.norm_sign == -1 and e.l % 2 == 0)
            base = seed.elem / seed.p ** (seed.l // 2)
        pool.append((ctx, base))
    while produced < 500:
        ctx, base = pool[rng.randrange(len(pool))]
        if ctx.neg_pell_integral:
            alpha = base ** (2 * rng.randint(-2, 2) + 1)
            beta = base ** (2 * rng.randint(-2, 2) + 1)
        else:
            alpha = base * ctx.eta ** rng.randint(-2, 2)
            beta = base * ctx.eta ** rng.randint(-2, 2)
        if beta in (alpha, -alpha, alpha.conj(), -alpha.conj()):
            continue
        t1, t2 = case2_generate(ctx, alpha, beta)
        for t in (t1, t2):
            assert verify_star(t.a, t.b, t.c)
            oracle_verdict = tangent_bisector_check(t.a, t.b, t.c)
            if oracle_verdict is not None:
                assert oracle_verdict
        assert t1.c * t2.c == -1
        produced += 2
    _report(7, f"({produced} seeded triples, all exact)")


def test_criterion_8_pell_sequence_identities():
    for d in (2, 5, 10, 34):
        ctx = make_context(d)
        for n in range(1, 13):
            f, g = pell_sequence(d, n)
            assert QuadElem.from_int_pair(d, f, g) == ctx.eps**n

    for d in (2, 5, 13):  # integrally solvable negative Pell equations
        ctx = make_context(d)
        for m in range(1, 4):
            for n in range(1, 4):
                t = integral_generate(ctx, m, n)
                assert verify_star(t.a, t.b, t.c)
                assert t.c.denominator == 1
    for n in range(1, 4):
        t = integral_generate2(n)
        assert verify_star(t.a, t.b, t.c)
    _report(8)
