from fractions import Fraction as F
from math import gcd

import pytest

from pellbisect.oracle import SearchBox, brute_solutions
from pellbisect.pellcore import make_context
from pellbisect.quadfield import QuadElem
from pellbisect.solver import (
    CoreFactor,
    Representation,
    XiPower,
    _unit_exponent,
    decompose_square,
    decompose_strict,
    evaluate_representation,
    generate_strict,
    strict_exists,
    validate_representation,
)
from pellbisect.spectrum import spectrum, xi


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


def test_validate_representation():
    assert not validate_representation(Representation(d=5, n=1))
    report = validate_representation(Representation(d=5, n=1))
    assert "divisible by 3" in report.problems[0]
    assert validate_representation(Representation(d=5, n=3))
    assert validate_representation(Representation(d=2, n=-1, terms=(XiPower(7, 1),)))
    assert not validate_representation(Representation(d=2, terms=(XiPower(3, 1),)))
    ev = evaluate_representation(Representation(d=2, n=-1, terms=(XiPower(7, 1),)))
    assert ev == QuadElem.from_int_pair(2, -1, 2)


def test_validate_reports_negative_exponent_without_evaluating():
    report = validate_representation(Representation(d=34, terms=(XiPower(3, -1),), scale=2))
    assert report.problems == ("negative exponent at p=3",)


def test_validate_flags_a_core_with_the_wrong_modulus():
    report = validate_representation(Representation(d=34, core=CoreFactor(modulus=4, x=5, y=1)))
    assert report.problems == ("core (5, 1) does not have modulus 4",)  # |25 - 34| = 9
    assert validate_representation(Representation(d=34, core=CoreFactor(modulus=9, x=5, y=1)))


def test_validate_reports_a_composite_prime_as_outside_the_spectrum():
    report = validate_representation(Representation(d=34, terms=(XiPower(4, 1),)))
    assert report.problems == ("p=4 is outside the spectrum of d=34",)


@pytest.mark.parametrize("scale", (F(0), F(-1), F(-2, 3)))
def test_validate_rejects_a_scale_that_is_not_positive(scale):
    report = validate_representation(Representation(d=34, terms=(XiPower(3, 1),), scale=scale))
    assert report.problems == ("scale must be positive",)


def test_validate_scaled_representation():
    ctx, spec = ctx_spec(34)
    rep = decompose_square(ctx, spec, 405, 75)
    assert validate_representation(rep)


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


@pytest.mark.parametrize("d", (2, 5, 13, 34, 601))
def test_unit_exponent_walks_every_power_of_eta(d):
    ctx = make_context(d)
    for n in range(-30, 31):
        for sign in (1, -1):
            assert _unit_exponent(ctx, sign * ctx.eta**n) == (n, sign)


def test_unit_exponent_rejects_norm_one_elements_outside_the_ring():
    ctx = make_context(2)
    u = QuadElem(2, F(11, 7), F(6, 7))
    assert u.norm() == 1
    with pytest.raises(ValueError, match="not a unit"):
        _unit_exponent(ctx, u)
    with pytest.raises(ValueError, match="not a unit"):
        _unit_exponent(ctx, QuadElem.from_int_pair(2, 3, 1))  # norm 7


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
