import json
import os
import random
import signal
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction as F
from functools import reduce
from math import gcd, isqrt
from operator import mul
from pathlib import Path

import pytest
import sympy

from pellbisect import pellcore, rationalpell, solver
from pellbisect.arith import factorize, is_squarefree
from pellbisect.oracle import SearchBox, brute_solutions
from pellbisect.pellcore import Spectrum, XiEntry, make_context, spectrum, xi
from pellbisect.quadfield import InvariantError, QuadElem, _mul_scaled, _pow_scaled, exact_div
from pellbisect.rationalpell import RationalPellPoint, decompose_rational
from pellbisect.solver import (
    CoreFactor,
    ExistenceVerdict,
    Representation,
    XiPower,
    _element,
    _evaluate_scaled,
    _unit_exponent,
    decompose,
    decompose_square,
    decompose_strict,
    evaluate_representation,
    generate_strict,
    solve,
    strict_exists,
    validate_representation,
)


SRC = Path(__file__).resolve().parents[1] / "src"


def ctx_spec(d, pmax=97):
    ctx = make_context(d)
    return ctx, spectrum(ctx, pmax)


def test_strict_exists_examples():
    ctx, spec = ctx_spec(34)
    v = strict_exists(ctx, spec, 9)
    assert v.exists and v.witness_exponents == {3: 1} and v.case_tags[3] == "A1"

    ctx, spec = ctx_spec(5)
    v = strict_exists(ctx, spec, 8)
    assert not v.exists and v.case_tags[2] == "A1'"

    ctx, spec = ctx_spec(2)
    v = strict_exists(ctx, spec, 49)
    assert v.exists and v.witness_exponents == {7: 2}
    v = strict_exists(ctx, spec, 3)
    assert not v.exists and v.case_tags[3] == "A2"


def test_strict_exists_rejects_small_z():
    ctx, spec = ctx_spec(2)
    with pytest.raises(ValueError):
        strict_exists(ctx, spec, 1)
    with pytest.raises(ValueError, match=r"need \|x\^2 - d y\^2\| > 1"):
        decompose_strict(ctx, spec, 1, 0)


def test_spectrum_of_another_d_is_rejected():
    ctx = make_context(2)
    spec = spectrum(make_context(34), 97)  # 3 splits for 34 but is inert for 2
    with pytest.raises(ValueError, match="does not belong"):
        strict_exists(ctx, spec, 9)
    with pytest.raises(ValueError, match="does not belong"):
        generate_strict(ctx, spec, 9, range(-1, 2))
    with pytest.raises(ValueError, match="does not belong"):
        decompose_strict(ctx, spec, 3, 1)  # 3^2 - 2 * 1^2 = 7


def test_strict_exists_jointly_principal_cases():
    """Solutions whose prime parts are only jointly principal are found via
    the residual core, not the per-prime exponents."""
    for d, z, xy in [(10, 39, (7, 1)), (15, 14, (1, 1)), (26, 55, (9, 1)), (30, 91, (11, 1))]:
        ctx, spec = ctx_spec(d)
        v = strict_exists(ctx, spec, z)
        assert v.exists and v.core_modulus == z, (d, z)
        x, y = xy
        assert abs(x * x - d * y * y) == z


def test_strict_exists_cofactor2_shapes():
    # d = 1 mod 8: ord_2 can be anything >= l_2, and 1, 2 never occur
    ctx, spec = ctx_spec(17)
    assert strict_exists(ctx, spec, 16).exists
    assert strict_exists(ctx, spec, 32).exists
    assert not strict_exists(ctx, spec, 4).exists
    assert not strict_exists(ctx, spec, 2).exists
    # d = 5 mod 8: ord_2 is 0 or 2, with or without a half unit
    ctx, spec = ctx_spec(5)
    assert not strict_exists(ctx, spec, 16).exists
    assert strict_exists(ctx, spec, 4).exists
    ctx, spec = ctx_spec(37)
    assert strict_exists(ctx, spec, 36).exists
    assert not strict_exists(ctx, spec, 9).exists


def test_generate_strict_examples():
    ctx, spec = ctx_spec(2)
    sols = generate_strict(ctx, spec, 7, range(0, 2))
    assert (3, 1) in sols and (5, 4) in sols
    assert 5 * 5 - 2 * 16 == -7

    ctx, spec = ctx_spec(34)
    sols = generate_strict(ctx, spec, 9, range(0, 2))
    assert (5, 1) in sols and (379, 65) in sols


def test_generate_strict_requires_existence():
    ctx, spec = ctx_spec(2)
    with pytest.raises(ValueError):
        generate_strict(ctx, spec, 3, range(0, 1))


def test_generate_output_is_sorted_and_strict():
    ctx, spec = ctx_spec(10)
    sols = generate_strict(ctx, spec, 39, range(-2, 3))
    assert sols == sorted(sols, key=lambda s: (s[1], s[0]))
    for x, y in sols:
        assert abs(x * x - 10 * y * y) == 39
        assert gcd(x, 10 * y) == 1
        assert y >= 0


def test_decompose_strict_examples():
    ctx, spec = ctx_spec(2)
    rep = decompose_strict(ctx, spec, 5, 4)
    assert (rep.sign, rep.n) == (1, 1)
    assert rep.terms == (XiPower(7, 1, False),)

    rep = decompose_strict(ctx, spec, 3, 1)
    assert (rep.sign, rep.n) == (1, 0)
    assert rep.terms == (XiPower(7, 1, False),)

    ctx, spec = ctx_spec(13)
    rep = decompose_strict(ctx, spec, 11, 3)
    assert (rep.sign, rep.n) == (1, 0)
    assert rep.terms == (XiPower(2, 1, False),)


def test_decompose_strict_rejects_imprimitive():
    ctx, spec = ctx_spec(2)
    with pytest.raises(ValueError):
        decompose_strict(ctx, spec, 10, 1)  # gcd(10, 2) = 2


def test_decompose_roundtrip_jointly_principal():
    for d, z in [(10, 39), (15, 14), (26, 55), (30, 91), (17, 16), (17, 32)]:
        ctx, spec = ctx_spec(d)
        for hit in brute_solutions(d, z, SearchBox(500)):
            if not hit.strict or hit.y == 0:
                continue
            rep = decompose_strict(ctx, spec, hit.x, hit.y)
            assert evaluate_representation(rep) == QuadElem.from_int_pair(d, hit.x, hit.y)


def test_decompose_square_examples():
    ctx, spec = ctx_spec(34)
    rep = decompose_square(ctx, spec, 405, 75)
    assert rep.scale == 15
    assert rep.terms == (XiPower(11, 1, False),)
    assert rep.n == 0

    rep = decompose_square(ctx, spec, 49, 8)
    assert rep.scale == 1
    assert rep.terms == (XiPower(3, 1, False), XiPower(5, 1, False))

    ctx, spec = ctx_spec(5)
    rep = decompose_square(ctx, spec, 7, 0)
    assert rep.scale == 7 and rep.terms == () and rep.n == 0


def test_decompose_square_rejects_nonsquare():
    ctx, spec = ctx_spec(2)
    with pytest.raises(ValueError):
        decompose_square(ctx, spec, 3, 1)  # |9-2| = 7 is not a square


NEITHER = "its value is no point of x^2 - {}y^2 = +-1 and no solution that decompose accepts"


def test_validate_representation():
    assert validate_representation(Representation(d=5, n=1))  # eta = (1 + sqrt(5))/2, a point
    assert validate_representation(Representation(d=5, n=3))
    assert validate_representation(Representation(d=2, n=-1, terms=(XiPower(7, 1),)))
    assert not validate_representation(Representation(d=2, terms=(XiPower(3, 1),)))
    ev = evaluate_representation(Representation(d=2, n=-1, terms=(XiPower(7, 1),)))
    assert ev == QuadElem.from_int_pair(2, -1, 2)
    with pytest.raises(ValueError, match="prime 7 is not in the spectrum of d=34"):
        evaluate_representation(Representation(d=34, terms=(XiPower(7, 1),)))
    report = validate_representation(Representation(d=34, sign=2, m=2))
    assert report.problems == ("m must be 0 or 1, got 2",)  # the gate's one message


def test_validate_reports_what_evaluation_says_of_an_exponent():
    report = validate_representation(Representation(d=34, terms=(XiPower(3, -1),), scale=2))
    assert report.problems == (NEITHER.format(34),)  # 2 / (5 + sqrt(34)) has norm 4/9
    for exp in ("a", None, 1.0):
        report = validate_representation(Representation(d=34, terms=(XiPower(3, exp),)))
        assert report.problems == (f"exponent must be an integer, got {exp!r}",)


def test_validate_flags_a_core_with_the_wrong_modulus():
    xi3 = Representation(d=34, terms=(XiPower(3, 1),))
    report = validate_representation(Representation(d=34, core=CoreFactor(modulus=4, x=5, y=1)))
    assert report.problems == (f"the peel labels its value {xi3}",)  # |25 - 34| = 9
    report = validate_representation(Representation(d=34, core=CoreFactor(modulus=9, x=5, y=1)))
    assert report.problems == (f"the peel labels its value {xi3}",)
    report = validate_representation(Representation(d=34, core=CoreFactor(modulus=0, x=0, y=0)))
    assert report.problems == (NEITHER.format(34),)  # it evaluates to 0
    report = validate_representation(Representation(d=34, core=CoreFactor(modulus=4, x=2, y=0)))
    assert report.problems == (f"the peel labels its value {Representation(d=34, scale=F(2))}",)  # gcd(2, 0) = 2


def test_validate_reports_a_composite_prime_as_outside_the_spectrum():
    report = validate_representation(Representation(d=34, terms=(XiPower(4, 1),)))
    assert report.problems == ("4 is not prime",)
    report = validate_representation(Representation(d=34, terms=(XiPower("3", 1),)))
    assert report.problems == ("3 is not prime",)


@pytest.mark.parametrize("scale", (F(0), F(-1), F(-2, 3)))
def test_validate_rejects_a_scale_that_is_not_positive(scale):
    report = validate_representation(Representation(d=34, terms=(XiPower(3, 1),), scale=scale))
    # -(5 + sqrt(34)) is labelled with sign -1; 0 and -2/3 * (5 + sqrt(34)) are no value decompose accepts
    problem = f"the peel labels its value {Representation(d=34, sign=-1, terms=(XiPower(3, 1),))}"
    assert report.problems == ((problem,) if scale == -1 else (NEITHER.format(34),))


def test_validate_scaled_representation():
    ctx, spec = ctx_spec(34)
    rep = decompose_square(ctx, spec, 405, 75)
    assert validate_representation(rep)


@pytest.mark.parametrize(
    "rep, problems",
    (
        # 2 * (3 + sqrt(2)): |N| = 28 is no square and gcd(6, 2 * 2) = 2
        (Representation(d=2, terms=(XiPower(7, 1),), scale=F(2)), (NEITHER.format(2),)),
        # d = 1 mod 8: the cofactor 2 (m = 1) makes 3 * 2 * (xi_2 / 2)^2 integral
        (Representation(d=17, m=1, terms=(XiPower(2, 2),), scale=F(3)), ()),
        (Representation(d=17, terms=(XiPower(2, 2),), scale=F(3)), (NEITHER.format(17),)),
        # d = 5 mod 8: xi_2 = 2 * eta^2, so eta * xi_2 * 2 is 4 * eta^3
        (Representation(d=5, n=1, terms=(XiPower(2, 1),), scale=F(2)),
         (f"the peel labels its value {Representation(d=5, n=3, scale=F(4))}",)),
        (Representation(d=5, n=1, terms=(XiPower(2, 1),), scale=F(3)),
         (f"the peel labels its value {Representation(d=5, n=3, scale=F(6))}",)),
        # a point: |N(xi_3)| = 9 for d = 34
        (Representation(d=34, terms=(XiPower(3, 1),), scale=F(1, 3)), ()),
        (Representation(d=34, terms=(XiPower(3, 1),), scale=F(1, 5)), (NEITHER.format(34),)),
    ),
)
def test_validate_scaled_caps_and_rational_scale(rep, problems):
    report = validate_representation(rep)
    assert (report.ok, report.problems) == (not problems, problems)


TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)


def _strictly_primitive(d, elem):
    x, y = elem.int_coords()
    return gcd(x, d * y) == 1


@pytest.mark.parametrize("d", TABLE_DS)
def test_products_of_distinct_prime_entries_stay_strict(d):
    """Multiplying fundamental elements of distinct primes keeps both the
    predicted modulus and strict primitivity."""
    ctx = make_context(d)
    entries = spectrum(ctx, 31).entries
    for i, e1 in enumerate(entries):
        for e2 in entries[i + 1 :]:
            prod = e1.elem * e2.elem
            assert abs(prod.norm()) == e1.p**e1.l * e2.p**e2.l
            assert _strictly_primitive(d, prod)


@pytest.mark.parametrize("d", TABLE_DS)
def test_powers_of_odd_prime_entries_stay_strict(d):
    ctx = make_context(d)
    for e in spectrum(ctx, 31).entries:
        if e.p == 2:
            continue
        for n in range(1, 5):
            power = e.elem**n
            assert abs(power.norm()) == e.p ** (e.l * n)
            assert _strictly_primitive(d, power)


@pytest.mark.parametrize("d", (5, 13, 17, 29))
def test_powers_of_xi2_collapse_to_even_pairs(d):
    """The square of the p = 2 fundamental element always has even
    coordinates when d = 1 mod 4, so strict primitivity is lost; its modulus
    is still the predicted power of 2."""
    e = xi(make_context(d), 2)
    sq = e.elem**2
    assert abs(sq.norm()) == 2 ** (2 * e.l)
    x, y = sq.int_coords()
    assert x % 2 == 0 and y % 2 == 0


@pytest.mark.parametrize("d", (2, 5, 10, 13, 17, 26, 29))
def test_unit_multiplication_flips_sign_and_keeps_strict(d):
    ctx = make_context(d)
    assert ctx.neg_pell_integral
    for e in spectrum(ctx, 31).entries:
        flipped = e.elem * ctx.eps
        assert flipped.norm() == -e.elem.norm()
        assert _strictly_primitive(d, flipped)


def test_sign_rigidity_without_negative_pell():
    """When the negative Pell equation has no integral solution, no prime
    power admits strictly primitive solutions of both signs.  (Composite
    moduli can: d=34, z=15 has (7,1) on +15 and (11,2) on -15.)"""
    for d in (21, 33, 34):
        assert not make_context(d).neg_pell_integral
        for z in (p**k for p in (2, 3, 5, 7, 11, 13) for k in (1, 2, 3)):
            signs = {
                h.sign
                for h in brute_solutions(d, z, SearchBox(800))
                if h.strict and h.y > 0
            }
            assert len(signs) <= 1, (d, z)
    both = {
        h.sign for h in brute_solutions(34, 15, SearchBox(100)) if h.strict and h.y > 0
    }
    assert both == {1, -1}


@pytest.mark.parametrize("d", (2, 5, 13, 17, 21, 34, 77, 94, 601))
def test_unit_exponent_walks_every_power_of_eta(d):
    ctx = make_context(d)
    far = (-2000, -1500, -1000, -333, -300, 300, 333, 1000, 2000) if d in (2, 5, 13, 34, 94, 601) else ()
    for n in (*range(-30, 31), *far):
        for sign in (1, -1):
            assert _unit_exponent(ctx, *(sign * ctx.eta**n).scaled_coords()) == (n, sign)


def test_decompose_self_check_survives_optimize():
    """Under python -O the asserts are gone; a wrong unit exponent must still
    fail the field-product self-check of decompose_strict."""
    code = (
        "import pellbisect.solver as solver\n"
        "from pellbisect import InvariantError, make_context, spectrum\n"
        "walk = solver._unit_exponent\n"
        "def off_by_one(ctx, x, y, m):\n"
        "    n, sign = walk(ctx, x, y, m)\n"
        "    return n + 1, sign\n"
        "solver._unit_exponent = off_by_one\n"
        "ctx = make_context(34)\n"
        "print(__debug__)\n"
        "try:\n"
        "    print(solver.decompose_strict(ctx, spectrum(ctx, 97), 5, 1))\n"
        "except InvariantError:\n"
        "    print('InvariantError')\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert r.stdout.split() == ["False", "InvariantError"], r.stdout + r.stderr


def test_unit_exponent_rejects_norm_one_elements_outside_the_ring():
    ctx = make_context(2)
    assert QuadElem(2, F(11, 7), F(6, 7)).norm() == 1
    for triple in ((11, 6, 7), (3, 1, 1)):  # norm 1 outside O_K, norm 7
        with pytest.raises(ValueError, match="not a unit"):
            _unit_exponent(ctx, *triple)
    # (1 + sqrt(5))/2 is eta; (1 + sqrt(17))/4 has norm -1 but lies outside O_K
    assert _unit_exponent(make_context(5), 1, 1, 2) == (1, 1)
    for d, triple in ((17, (1, 1, 4)), (5, (1, 1, 4)), (2, (1, 1, 2))):
        with pytest.raises(ValueError, match="not a unit"):
            _unit_exponent(make_context(d), *triple)


@pytest.mark.parametrize("n", (10000, -10000))
def test_unit_exponent_takes_at_most_four_steps_after_its_guess(n, monkeypatch):
    """On d = 94, eta^+-10000 costs one product by eta^-guess and at most 4 steps by the memo's eta^+-1."""
    ctx = make_context(94)
    unit = _pow_scaled(94, *ctx.eta.scaled_coords(), n)
    products, asked = [], []
    real_mul, real_eta = solver._mul_scaled, solver._eta_power
    monkeypatch.setattr(solver, "_mul_scaled", lambda *a: products.append(a) or real_mul(*a))
    monkeypatch.setattr(solver, "_eta_power", lambda d, k: asked.append(k) or real_eta(d, k))
    assert _unit_exponent(ctx, *unit) == (n, 1)
    assert 1 <= len(products) <= 5 and set(asked) <= {1, -1}  # the guess, then at most 4 steps


def test_the_residue_picks_the_conjugate_that_trial_division_accepts():
    """Every odd-p term of every peel of solve on square-free d < 40, 2 <= z < 300 and n in -1..1 is the one
    of xi_p^e and its conjugate that divides the solution, and the other does not divide it."""
    terms = 0
    for d in filter(is_squarefree, range(2, 40)):
        ctx = make_context(d)
        for z in range(2, 300):
            for x, y, rep in solve(ctx, z, range(-1, 2))[1]:
                for t in rep.terms:
                    if t.p != 2:
                        e = xi(ctx, t.p)
                        divides = [exact_div(QuadElem(d, x, y), QuadElem(d, e.x, -e.y if c else e.y) ** t.exp)
                                   is not None for c in (False, True)]
                        assert divides == [not t.conj, t.conj], (d, x, y, t)
                        terms += 1
    assert terms > 1000


@pytest.mark.parametrize("d", (145, 265, 305))
def test_powers_of_two_outside_the_xi_2_ladder_go_to_the_core(d):
    """d = 1 mod 8 with l_2 = 6, 4, 4: a 2^e off the ladder 2^(2 + (l_2-2)k)
    becomes the core modulus and the window search decides it."""
    ctx = make_context(d)
    spec = spectrum(ctx, 2)
    cored = 0
    for e in range(3, 12):
        z = 2**e
        v = strict_exists(ctx, spec, z)
        hits = [h for h in brute_solutions(d, z, SearchBox(20_000)) if h.strict and h.y > 0]
        assert v.exists == bool(hits), (d, z)
        cored += v.core_modulus == z
        if not v.exists:
            continue
        for x, y in generate_strict(ctx, spec, z, range(-2, 3)):
            rep = decompose_strict(ctx, spec, x, y)
            assert evaluate_representation(rep) == QuadElem.from_int_pair(d, x, y)
    assert cored


def test_to_json_matches_the_dataclass_fields():
    reps = [
        Representation(d=34),
        Representation(d=34, sign=-1, m=1, n=-2, terms=(XiPower(3, 2), XiPower(11, 1, conj=True)),
                       core=CoreFactor(modulus=15, x=7, y=1, conj=True), scale=F(2, 3)),
    ]
    ctx, spec = ctx_spec(34)
    reps += [decompose_strict(ctx, spec, x, y) for z in (9, 15) for x, y in generate_strict(ctx, spec, z, range(2))]
    reps.append(decompose_square(ctx, spec, 405, 75))
    for rep in reps:
        expected = {**asdict(rep), "scale": str(rep.scale)}
        assert json.dumps(rep.to_json()) == json.dumps(expected)


def _fraction_product(d, u, v):
    """(a1 + b1*sqrt(d)) * (a2 + b2*sqrt(d)) on Fraction pairs, independent of QuadElem."""
    return u[0] * v[0] + d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _fraction_power(d, u, k):
    """u^k by k-fold Fraction products; a negative k starts from conj(u) / N(u)."""
    if k < 0:
        n = u[0] * u[0] - d * u[1] * u[1]
        u, k = (u[0] / n, -u[1] / n), -k
    out = (F(1), F(0))
    for _ in range(k):
        out = _fraction_product(d, out, u)
    return out


def _reference_evaluation(rep):
    """The representation's value one Fraction factor at a time: sign * 2^m,
    eta^n, each xi_p^exp (xi_2 / 2 for d = 1 mod 8, conjugated on conj),
    the core and the scale."""
    d, ctx = rep.d, make_context(rep.d)
    out = _fraction_power(d, (ctx.eta.a, ctx.eta.b), rep.n)
    out = (out[0] * rep.sign * 2**rep.m, out[1] * rep.sign * 2**rep.m)
    factors = []
    for t in rep.terms:
        e = xi(ctx, t.p)
        half = 2 if t.p == 2 and d % 8 == 1 else 1
        factors.append(((F(e.x, half), F(-e.y if t.conj else e.y, half)), t.exp))
    if rep.core is not None:
        c = rep.core
        factors.append(((F(c.x), F(-c.y if c.conj else c.y)), 1))
    for u, k in factors:
        out = _fraction_product(d, out, _fraction_power(d, u, k))
    return out[0] * rep.scale, out[1] * rep.scale


def _seeded_representations(d, count=40):
    """Representations with negative n, negative exponents, conjugates, the
    half-coordinate xi_2 / 2, cores, sign 0 and scales other than 1; not all
    of them pass validate_representation."""
    rng = random.Random(d)
    primes = spectrum(make_context(d), 97).primes
    reps = []
    for i in range(count):
        chosen = sorted(rng.sample(primes, rng.randint(0, 3)) + ([2] if 2 in primes and i % 4 == 0 else []))
        terms = tuple(XiPower(p, rng.randint(-2, 3), rng.random() < 0.5) for p in dict.fromkeys(chosen))
        core = None
        if i % 3 == 0:
            x, y = rng.randint(-40, 40), rng.randint(1, 9)
            core = CoreFactor(abs(x * x - d * y * y), x, y, rng.random() < 0.5)
        reps.append(Representation(
            d=d, sign=rng.choice((1, -1, 1, -1, 0)), m=rng.randint(0, 1), n=rng.randint(-4, 4),
            terms=terms, core=core, scale=rng.choice((F(1), F(1), F(3), F(1, 4), F(5, 3)))))
    return reps


@pytest.mark.parametrize("d", (2, 5, 13, 17, 34, 41))
def test_evaluate_matches_the_fraction_product(d):
    reps = _seeded_representations(d)
    assert any(r.core for r in reps) and any(r.sign == 0 for r in reps) and any(r.scale != 1 for r in reps)
    assert any(t.exp < 0 for r in reps for t in r.terms) and any(t.conj for r in reps for t in r.terms)
    assert any(r.n < 0 for r in reps) and (d % 8 != 1 or any(t.p == 2 for r in reps for t in r.terms))
    for rep in reps:
        got = evaluate_representation(rep)
        assert (got.a, got.b) == _reference_evaluation(rep), rep
        assert type(got.a) is F and type(got.b) is F and got.d == d


def test_a_perturbed_evaluation_fails_every_self_check(monkeypatch):
    """Every self-check reads the one integer evaluation: shift its x by one
    and each of them raises."""
    from pellbisect import rationalpell, solver

    ctx, spec = ctx_spec(34)
    rep = Representation(d=34, terms=(XiPower(3, 1),))  # |N(xi_3)| = 9, a square
    point = rationalpell.generate_rational(ctx, spec, rep)
    real = solver._evaluate_scaled

    def shifted(r):
        x, y, m = real(r)
        return x + 1, y, m

    monkeypatch.setattr(solver, "_evaluate_scaled", shifted)
    monkeypatch.setattr(rationalpell, "_evaluate_scaled", shifted)
    with pytest.raises(InvariantError, match=r"does not evaluate to \(5, 1\)$"):
        decompose_strict(ctx, spec, 5, 1)
    with pytest.raises(InvariantError, match="does not evaluate to"):
        decompose_square(ctx, spec, 10, 2)  # 2 * (5 + sqrt(34))
    with pytest.raises(InvariantError, match=r"does not evaluate to \(35, 6\) \* 2$"):
        decompose_square(ctx, spec, 70, 12)  # 2 * eps
    with pytest.raises(InvariantError, match="does not evaluate to"):
        rationalpell.decompose_rational(ctx, spec, point)
    with pytest.raises(ValueError, match="parity violation"):
        rationalpell.generate_rational(ctx, spec, rep)


def _public_label(ctx, value):
    """The label the public decomposer gives value: decompose_rational for a point of
    x^2 - d y^2 = +-1, decompose for an integral solution it accepts, else None."""
    d, norm = ctx.d, value.norm()
    try:
        if abs(norm) == 1:
            spec = spectrum(ctx, max(factorize(value.a.denominator), default=2))
            return decompose_rational(ctx, spec, RationalPellPoint(d, value.a, value.b, 0 if norm == 1 else 1))
        return decompose(ctx, *value.int_coords())
    except ValueError:
        return None


@pytest.mark.parametrize("d", (2, 5, 13, 17, 34, 41))
def test_validate_is_the_round_trip_of_the_peel(d):
    """A well-formed representation is valid exactly when the public decomposer of its value gives
    it back, and every label a decomposer gives is valid."""
    ctx = make_context(d)
    outcomes = []
    for rep in _seeded_representations(d):
        rep = replace(
            rep, sign=rep.sign or 1, terms=tuple(replace(t, exp=abs(t.exp)) for t in rep.terms),
            core=rep.core if rep.core and gcd(rep.core.x, d * rep.core.y) == 1 else None)
        label = _public_label(ctx, evaluate_representation(rep))
        outcomes.append((label is not None, label == rep))
        assert validate_representation(rep).ok == (label == rep), rep
        assert label is None or validate_representation(label), label
    assert {(True, True), (True, False), (False, False)} <= set(outcomes)


def _quadelem_element(ctx, label):
    """The QuadElem form of a factor: xi_p (xi_2 / 2 for d = 1 mod 8) or the
    core, conjugated on conj, raised by exp-fold QuadElem products."""
    if isinstance(label, CoreFactor):
        core = QuadElem.from_int_pair(ctx.d, label.x, label.y)
        return core.conj() if label.conj else core
    entry = xi(ctx, label.p)
    base = entry.elem / 2 if label.p == 2 and ctx.d % 8 == 1 else entry.elem
    base = base.conj() if label.conj else base
    return reduce(mul, [base] * label.exp, QuadElem(ctx.d, 1, 0))


@pytest.mark.parametrize("d", TABLE_DS + (33, 41, 57, 73))  # 17 is a table d
def test_element_is_the_quadelem_factor_as_a_triple(d):
    """Every spectrum prime up to 97 with exp 0..3 and both conj values, and
    cores of either conj, against the QuadElem factor's scaled coordinates."""
    ctx, spec = ctx_spec(d)
    labels = [XiPower(p, e, c) for p in spec.primes for e in range(4) for c in (False, True)]
    labels += [CoreFactor(abs(x * x - d * y * y), x, y, c) for x, y in ((5, 1), (-7, 2), (3, -4)) for c in (False, True)]
    assert d % 8 != 1 or 2 in spec.primes
    for label in labels:
        assert _element(ctx, label) == _quadelem_element(ctx, label).scaled_coords(), label


@pytest.mark.parametrize("d", TABLE_DS)
def test_the_factor_memos_give_the_powers_of_pow_scaled(d):
    """xi_p^e for every spectrum prime up to 97, e in 1..4 and both conj values, and eta^n for
    n in -5..5, read from the memos cold and then warm, against _pow_scaled on the raw entry."""
    ctx, spec = ctx_spec(d)
    keys = [(entry, e, c) for entry in spec.entries for e in range(1, 5) for c in (False, True)]
    expected_xi = {(entry.p, e, c): _pow_scaled(d, entry.x, -entry.y if c else entry.y,
                                                2 if entry.p == 2 and d % 8 == 1 else 1, e) for entry, e, c in keys}
    expected_eta = {n: _pow_scaled(d, *ctx.eta.scaled_coords(), n) for n in range(-5, 6)}
    for memo in (solver._xi_power, solver._eta_power):
        memo.cache_clear()
    for warm in (False, True):
        assert {(p, e, c): _element(ctx, XiPower(p, e, c)) for p, e, c in expected_xi} == expected_xi, warm
        assert {n: solver._eta_power(d, n) for n in range(-5, 6)} == expected_eta, warm
        assert (solver._xi_power.cache_info().hits, solver._eta_power.cache_info().hits) == (
            (len(keys), len(expected_eta)) if warm else (0, 0))


def test_a_float_or_bool_exponent_is_refused_with_the_memo_cold_and_warm():
    """1.0 and True equal 1, so the memos' keys are typed: an exponent or n of either is refused
    as before, also once its integer twin is cached."""
    ctx, spec = ctx_spec(34)
    evaluate = lambda e: evaluate_representation(Representation(34, terms=(XiPower(3, e),)))  # noqa: E731
    generate = lambda n: generate_strict(ctx, spec, 9, [n])  # noqa: E731
    for memo in (solver._xi_power, solver._eta_power):
        memo.cache_clear()
    for call, bad in ((evaluate, True), (evaluate, 1.0), (generate, True), (generate, 2.0)):
        with pytest.raises(ValueError, match=f"^exponent must be an integer, got {bad}$"):
            call(bad)
        assert call(int(bad))  # the integer key is cached now
        with pytest.raises(ValueError, match=f"^exponent must be an integer, got {bad}$"):
            call(bad)


def test_generate_strict_builds_no_quadelem(monkeypatch):
    """Stems, unit powers and candidates are integer triples: with every
    QuadElem constructor and product patched to raise, each call answers as before."""
    cases = [(2, 7), (2, 119), (5, 44), (10, 39), (17, 8 * 13), (17, 2**7 * 19), (34, 9), (34, 5985507575)]
    setups = [(ctx_spec(d), z) for d, z in cases]
    expected = [generate_strict(ctx, spec, z, range(-2, 3)) for (ctx, spec), z in setups]
    assert all(expected)

    def refuse(*args, **kwargs):
        raise AssertionError("generate_strict built a QuadElem")

    for name in ("__post_init__", "__mul__", "__rmul__", "__pow__", "__truediv__"):
        monkeypatch.setattr(QuadElem, name, refuse)
    monkeypatch.setattr(QuadElem, "_of", staticmethod(refuse))
    assert [generate_strict(ctx, spec, z, range(-2, 3)) for (ctx, spec), z in setups] == expected


def test_the_warm_path_checks_no_context_and_no_prime(monkeypatch):
    """Generating, decomposing and evaluating the 48 solutions of
    |x^2 - 34 y^2| = 5985507575 checks the context once per generate_strict or
    decompose_strict call and never per factor, nor in the verdict they share; no p
    is checked again, since every factor reads the memo."""
    ctx, spec = ctx_spec(34)
    solver._verdict.cache_clear()
    calls = []
    for module, name in ((pellcore, "_check_prime"), (pellcore, "check_context"), (solver, "check_context")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _real=real: calls.append(_name) or _real(*args))
    solutions = generate_strict(ctx, spec, 5985507575, range(-1, 2))
    assert len(solutions) == 48
    for x, y in solutions:
        assert evaluate_representation(decompose_strict(ctx, spec, x, y)) == QuadElem.from_int_pair(34, x, y)
    assert calls == ["check_context"] * (1 + 48)


def test_solve_and_decompose_check_the_context_once_and_build_no_spectrum(monkeypatch):
    """solve and decompose check their inputs where they enter and then call the solver's
    bodies: one context check per call and no Spectrum, for 48 solutions as for one."""
    ctx = make_context(34)
    solver._verdict.cache_clear()
    checks, spectra = [], []
    real_check, real_init = solver.check_context, Spectrum.__post_init__
    monkeypatch.setattr(solver, "check_context", lambda c: checks.append(c) or real_check(c))
    monkeypatch.setattr(Spectrum, "__post_init__", lambda self: spectra.append(self) or real_init(self))
    calls = [lambda: len(solve(ctx, 5985507575, range(-1, 2))[1]),
             lambda: decompose(ctx, 405, 75).scale, lambda: decompose(ctx, 5, 1).scale]
    for call, answer in zip(calls, (48, 15, 1)):
        checks.clear()
        assert call() == answer
        assert (len(checks), len(spectra)) == (1, 0)


@pytest.mark.parametrize("d", (5, 13, 17, 34))
def test_evaluate_scaled_raises_eta_on_the_triple(d, monkeypatch):
    """eta^n for n in -3..3 comes from the integer power kernel, never from QuadElem.__pow__."""
    ctx, spec = ctx_spec(d)
    reps = [Representation(d=d, sign=-1, n=n, terms=(XiPower(spec.primes[0], 2, conj=True),)) for n in range(-3, 4)]
    expected = [_reference_evaluation(rep) for rep in reps]

    def refuse(*args):
        raise AssertionError("_evaluate_scaled raised a QuadElem to a power")

    monkeypatch.setattr(QuadElem, "__pow__", refuse)
    for rep, (a, b) in zip(reps, expected):
        x, y, m = _evaluate_scaled(rep)
        assert (F(x, m), F(y, m)) == (a, b), rep


# (d, p, the ValueError text): composite, inert, non-positive and non-int p in a user Representation
BAD_USER_PRIMES = [(10, 9, "9 is not prime"), (34, 9, "9 is not prime"), (34, 1, "1 is not prime"),
                   (34, -3, "-3 is not prime"), (34, 3.0, "3.0 is not prime"),
                   (34, 7, "prime 7 is not in the spectrum of d=34")]


@pytest.mark.parametrize("d, p, message", BAD_USER_PRIMES)
def test_a_bad_prime_in_a_user_representation_is_refused(d, p, message, monkeypatch):
    """evaluate_representation and generate_rational check each p of a user's
    representation once, before any factor reads the memo with it."""
    seen = []
    real = solver._xi_cached
    monkeypatch.setattr(solver, "_xi_cached", lambda d_, q: seen.append(q) or real(d_, q))
    ctx, spec = ctx_spec(d)
    rep = Representation(d=d, terms=(XiPower(3, 1), XiPower(p, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        evaluate_representation(rep)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rationalpell.generate_rational(ctx, spec, rep)
    assert all(isinstance(q, int) and sympy.isprime(q) for q in seen), seen


def test_a_bad_prime_in_a_user_representation_is_refused_under_optimize():
    code = (
        "from pellbisect.pellcore import make_context, spectrum\n"
        "from pellbisect.rationalpell import generate_rational\n"
        "from pellbisect.solver import Representation, XiPower, evaluate_representation\n"
        "print(__debug__)\n"
        f"for d, p, _ in {BAD_USER_PRIMES!r}:\n"
        "    rep = Representation(d=d, terms=(XiPower(3, 1), XiPower(p, 2)))\n"
        "    ctx = make_context(d)\n"
        "    for call in (lambda: evaluate_representation(rep), lambda: generate_rational(ctx, spectrum(ctx, 97), rep)):\n"
        "        try:\n"
        "            print(call())\n"
        "        except ValueError as e:\n"
        "            print(e)\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    expected = ["False"] + [message for _, _, message in BAD_USER_PRIMES for _ in range(2)]
    assert r.stdout.splitlines() == expected, r.stdout + r.stderr


@pytest.mark.parametrize("d", TABLE_DS)
def test_solve_is_the_verdict_the_solutions_and_their_factorizations(d):
    """solve, which reads the entries of z's primes only, answers as the three
    solver steps over the whole spectrum up to 97, for every 97-smooth z < 500."""
    ctx, spec = ctx_spec(d)
    for z in range(2, 500):
        if max(factorize(z)) > 97:
            continue
        verdict = strict_exists(ctx, spec, z)
        solutions = generate_strict(ctx, spec, z, range(-2, 3)) if verdict.exists else []
        expected = (verdict, [(x, y, decompose_strict(ctx, spec, x, y)) for x, y in solutions])
        assert solve(ctx, z, range(-2, 3)) == expected, z


def test_solve_decides_a_yes_once_and_keeps_its_memo(monkeypatch):
    """A yes costs solve one verdict, so z is factored once; the verdict it returns is
    the caller's own, so mutating it changes no later generate_strict or decompose_strict
    on that z, which read the memo that solve filled."""
    ctx, z = make_context(34), 5985507575
    spec = Spectrum(34, z, ())  # solve's bound on the primes of z, so the calls below share its memo
    seen = []
    real = solver.factorize
    monkeypatch.setattr(solver, "factorize", lambda n: seen.append(n) or real(n))
    solver._verdict.cache_clear()
    verdict, solutions = solve(ctx, z, range(-1, 2))
    assert verdict.exists and len(solutions) == 48 and seen == [z]
    for p in verdict.witness_exponents:
        verdict.witness_exponents[p] += 1
    verdict.case_tags.clear()
    assert generate_strict(ctx, spec, z, range(-1, 2)) == [(x, y) for x, y, _ in solutions]
    assert [decompose_strict(ctx, spec, x, y) for x, y, _ in solutions] == [rep for _, _, rep in solutions]
    assert seen == [z]


def _decompose_reference(ctx, x, y):
    """decompose_strict when gcd(x, d y) = 1, else decompose_square, over the
    spectrum up to 97; the type of the ValueError when the chosen one raises."""
    spec = spectrum(ctx, 97)
    try:
        if gcd(x, ctx.d * y) == 1:
            return decompose_strict(ctx, spec, x, y)
        return decompose_square(ctx, spec, x, y)
    except ValueError as exc:
        return type(exc)


def test_decompose_takes_the_strict_or_the_square_path():
    """On the CLI's golden decompose inputs and 200 seeded multiples g*(x, y) of
    strictly primitive solutions, half of them of a square z: decompose answers
    as the path that gcd(x, d y) picks, and its scale is 1 exactly on the strict path."""
    rng = random.Random(21)
    cases = [(make_context(d), x, y) for d, x, y in ((34, 405, 75), (34, 5, 1), (2, 1, 0))]
    while len(cases) < 203:
        ctx, spec = ctx_spec(rng.choice(TABLE_DS))
        z = rng.randrange(2, 23) ** 2 if rng.random() < 0.5 else rng.randrange(2, 500)
        if max(factorize(z)) > 97 or not strict_exists(ctx, spec, z).exists:
            continue
        x, y = rng.choice(generate_strict(ctx, spec, z, range(-1, 2)))
        g = rng.randint(1, 4)
        cases.append((ctx, g * x, g * y))
    kinds = set()
    for ctx, x, y in cases:
        expected = _decompose_reference(ctx, x, y)
        try:
            rep = decompose(ctx, x, y)
        except ValueError as exc:
            assert type(exc) is expected, (ctx.d, x, y)
            kinds.add("error")
            continue
        assert rep == expected, (ctx.d, x, y)
        assert (rep.scale == 1) == (gcd(x, ctx.d * y) == 1) and (rep.scale == 1 or rep.scale == gcd(x, y))
        kinds.add("strict" if rep.scale == 1 else "square")
    assert kinds == {"strict", "square", "error"}


def _hand_built_spectra(d):
    """Spectra a caller may build, each bounding z's primes by 97: one with no entries, the real
    entries but the first, and for d = 34 the valid but non-minimal 59^2 - 34 * 10^2 = 3^4 as xi_3."""
    real = spectrum(make_context(d), 97).entries
    spectra = [Spectrum(d, 97, ()), Spectrum(d, 97, real[1:])]
    if d == 34:
        spectra.append(Spectrum(d, 97, tuple(XiEntry(34, 3, 4, 59, 10, 1) if e.p == 3 else e for e in real)))
    return spectra


def _every_answer(ctx, spec):
    """The solver's answers with spec for every 97-smooth 2 <= z < 500: the verdict, each solution
    with unit exponent in -1..1 and its strict decomposition, and for a square z = Z^2 the square
    decomposition of twice the solution and the rational decomposition of its point."""
    answers = []
    for z in range(2, 500):
        if max(factorize(z)) > 97:
            continue
        verdict = strict_exists(ctx, spec, z)
        answers.append(verdict)
        root = isqrt(z)
        for x, y in generate_strict(ctx, spec, z, range(-1, 2)) if verdict.exists else []:
            answers.append((x, y, decompose_strict(ctx, spec, x, y)))
            if root * root == z:
                point = RationalPellPoint(ctx.d, F(x, root), F(y, root), int(x * x < ctx.d * y * y))
                answers += [decompose_square(ctx, spec, 2 * x, 2 * y), decompose_rational(ctx, spec, point)]
    return answers


@pytest.mark.parametrize("d", TABLE_DS)
def test_a_spectrum_only_bounds_the_primes_of_z(d):
    """Every xi_p comes from the memo of xi: spectra built by hand, with entries missing or
    not minimal, give exactly the answers of spectrum(ctx, 97)."""
    ctx, spec = ctx_spec(d)
    expected = _every_answer(ctx, spec)
    assert any(isinstance(a, tuple) for a in expected)
    for hand_built in _hand_built_spectra(d):
        assert _every_answer(ctx, hand_built) == expected, hand_built


def test_a_prime_past_pmax_is_refused_before_any_xi(monkeypatch):
    """The least prime of z above pmax is named at once, with no xi_p computed for any prime."""
    seen = []
    real = solver._xi_cached
    monkeypatch.setattr(solver, "_xi_cached", lambda d, p: seen.append(p) or real(d, p))
    ctx = make_context(34)
    for spec in (spectrum(ctx, 97), Spectrum(34, 97, ())):
        with pytest.raises(ValueError, match=r"^spectrum only covers primes <= 97, asked for 101$"):
            strict_exists(ctx, spec, 3 * 101 * 1000003)
        with pytest.raises(ValueError, match=r"^spectrum only covers primes <= 97, asked for 1000003$"):
            strict_exists(ctx, spec, 1000003)
    assert seen == []


def test_a_no_by_the_rules_reads_no_xi_and_a_term_past_pmax_tests_no_primality(monkeypatch):
    """An inert odd prime, the 2 of an even d and a ramified odd prime each say no before xi_p of
    z's large split prime is read; generate_rational refuses a term past pmax before is_prime sees it."""
    seen, tested = [], []
    real_xi, real_is_prime = solver._xi_cached, solver.is_prime
    monkeypatch.setattr(solver, "_xi_cached", lambda d, p: seen.append(p) or real_xi(d, p))
    monkeypatch.setattr(solver, "is_prime", lambda n: tested.append(n) or real_is_prime(n))
    ctx = make_context(34)
    for small in (7, 2, 17):
        z = small * 1000003
        solver._verdict.cache_clear()
        verdict, solutions = _within_a_second(solve, ctx, z, range(-1, 2))
        assert verdict == ExistenceVerdict(exists=False, case_tags={small: "A2", 1000003: "A1"}) and solutions == []
        assert _within_a_second(strict_exists, ctx, Spectrum(34, z, ()), z) == verdict
    rep = Representation(d=34, terms=(XiPower(10**18 + 9, 1),))
    with pytest.raises(ValueError, match=r"^spectrum only covers primes <= 97, asked for 1000000000000000009$"):
        _within_a_second(rationalpell.generate_rational, ctx, spectrum(ctx, 97), rep)
    assert 1000003 not in seen and tested == []


class OutOfReach(Exception):
    """The call gave no answer within a second."""


def _within_a_second(fn, *args):
    def on_alarm(signum, frame):
        raise OutOfReach

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(1)
    try:
        return fn(*args)
    except OutOfReach:
        pass  # raised again below, without the frames the alarm interrupted
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    raise OutOfReach(f"{fn.__name__} gave no answer within a second")


OUT_OF_REACH = pytest.mark.xfail(
    strict=True, raises=OutOfReach,
    reason="ROADMAP item 4: xi's y-scan runs up to about f1 * p^ceil(l/2), here past a second")


@OUT_OF_REACH
def test_xi_181_29_answers_within_a_second():
    """sympy's row for (181, 29) in tests/data/xi_sympy.json: level 1, y = 29806870."""
    rows = json.loads((Path(__file__).parent / "data" / "xi_sympy.json").read_text())
    (row,) = [r for r in rows if r[:2] == [181, 29]]
    assert _within_a_second(xi, make_context(181), 29) == XiEntry(*row)


@OUT_OF_REACH
def test_solve_34_for_a_product_of_two_large_primes_answers_within_a_second():
    """z = 1000003 * 1000033: every answer is a strictly primitive solution with its
    factorization, and a no has none."""
    z = 1000003 * 1000033
    verdict, solutions = _within_a_second(solve, make_context(34), z, range(-1, 2))
    assert all(abs(x * x - 34 * y * y) == z and gcd(x, 34 * y) == 1
               and evaluate_representation(rep) == QuadElem.from_int_pair(34, x, y) for x, y, rep in solutions)
    assert verdict.exists or not solutions
