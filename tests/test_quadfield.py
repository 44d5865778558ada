import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, strategies as st

from pellbisect import quadfield
from pellbisect.arith import is_squarefree
from pellbisect.pellcore import make_context, spectrum
from pellbisect.quadfield import (
    FieldMismatchError,
    NotSquareFreeError,
    QuadElem,
    exact_div,
    render,
    render_rat,
    render_signed_power,
)


def q(d, a, b):
    return QuadElem(d, F(a), F(b))


def test_add_componentwise():
    assert q(2, 1, 1) + q(2, -1, 1) == q(2, 0, 2)
    assert q(5, F(3, 4), 0) + q(5, F(1, 4), 0) == q(5, 1, 0)
    assert q(34, 5, 1) + q(34, 5, -1) == q(34, 10, 0)


def test_add_rejects_mismatched_fields():
    with pytest.raises(FieldMismatchError):
        q(2, 1, 1) + q(3, 1, 1)
    with pytest.raises(FieldMismatchError):
        q(2, 1, 1) * q(5, 1, 1)


def test_mul():
    assert q(2, 1, 1) * q(2, 1, -1) == q(2, -1, 0)
    assert q(2, 1, 1) * q(2, 3, 1) == q(2, 5, 4)
    assert q(5, F(1, 2), F(1, 2)) ** 2 == q(5, F(3, 2), F(1, 2))


def test_conj_is_involution():
    assert q(2, 3, 1).conj() == q(2, 3, -1)
    assert q(2, 3, 1).conj().conj() == q(2, 3, 1)
    assert q(7, 5, 0).conj() == q(7, 5, 0)


def test_norm_reference_values():
    assert q(34, 35, 6).norm() == 1
    assert q(29, F(5, 2), F(1, 2)).norm() == -1
    assert q(34, 5, 1).norm() == -9


def test_pow():
    assert q(2, 1, 1) ** 2 == q(2, 3, 2)
    assert q(5, F(1, 2), F(1, 2)) ** 3 == q(5, 2, 1)
    assert q(2, 1, 1) ** -1 == q(2, -1, 1)


@pytest.mark.parametrize("x", (q(2, 1, 1), q(5, F(1, 2), F(1, 2)), q(34, 35, 6)))
def test_pow_skips_the_product_by_one_and_the_last_squaring(x, monkeypatch):
    products = []
    mul = quadfield._mul_scaled

    def counting_mul(d, *coords):
        products.append(coords)
        return mul(d, *coords)

    monkeypatch.setattr(quadfield, "_mul_scaled", counting_mul)
    for k in range(41):
        products.clear()
        x**k
        expected = 0 if k == 0 else k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(products) == expected, k
    products.clear()
    x * x.conj()
    assert len(products) == 1
    x * 3, F(2, 7) * x
    assert len(products) == 1


def _fraction_product(x, y):
    """x * y by the Fraction-coordinate formula, independent of QuadElem.__mul__."""
    a1, a2, b1, b2 = x.a, x.b, y.a, y.b
    return q(x.d, a1 * b1 + x.d * a2 * b2, a1 * b2 + a2 * b1)


def _fraction_powers(x, lo, hi):
    """{k: x**k} for lo <= k < hi by repeated Fraction-coordinate products, with
    the inverse taken as conj/norm in Fractions."""
    d, a, b = x.d, x.a, x.b
    n = a * a - d * b * b
    powers = {0: q(d, 1, 0)}
    for k in range(1, max(hi, -lo + 1)):
        powers[k] = _fraction_product(powers[k - 1], x)
        powers[-k] = _fraction_product(powers[1 - k], q(d, a / n, -b / n))
    return {k: powers[k] for k in range(lo, hi)}


@pytest.mark.parametrize("d", (2, 3, 5, 13, 17, 21, 34))
def test_mul_matches_the_fraction_formula(d):
    """Integer products equal the Fraction formula, hash alike and keep Fraction
    coordinates, on units, half-odd elements, xi elements over p, zero,
    negative and 12-digit rational coordinates; scalar products stay
    componentwise and other fields are refused."""
    rng = random.Random(d)
    ctx = make_context(d)
    pool = [ctx.eta, ctx.eps, ctx.eta.conj(), -ctx.eta, q(d, 0, 0), q(d, 1, 0), q(d, F(-5, 3), F(-7, 2))]
    pool += [e.elem / e.p for e in spectrum(ctx, 23).entries[:3]]
    if d % 4 == 1:
        pool += [q(d, F(1, 2), F(-3, 2)), q(d, F(-7, 2), F(5, 2))]
    for _ in range(20):
        pool.append(q(d, F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)),
                    F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))))
    for x in pool:
        for y in pool:
            got, reference = x * y, _fraction_product(x, y)
            assert got == reference and hash(got) == hash(reference), (x, y)
            assert type(got.a) is F and type(got.b) is F
        for c in (0, -3, F(2, 7), F(-10**12 + 1, 10**12)):
            scaled = q(d, x.a * c, x.b * c)
            assert x * c == c * x == scaled and hash(x * c) == hash(scaled)
            assert type((x * c).a) is F and type((c * x).b) is F
        with pytest.raises(FieldMismatchError):
            x * q(3 if d == 2 else 2, 1, 1)


@pytest.mark.parametrize("d", (2, 3, 5, 13, 17, 21, 34))
def test_pow_matches_repeated_fraction_products(d):
    """Integer square-and-multiply equals k-fold products for the units (with
    half coordinates for d = 5, 13, 21), a half-odd element when d = 1 mod 4,
    xi elements over p and other rational elements."""
    ctx = make_context(d)
    bases = [ctx.eta, ctx.eps, q(d, F(3, 7), F(-2, 5)), q(d, F(-11, 4), F(1, 6))]
    bases += [e.elem / e.p for e in spectrum(ctx, 23).entries[:3]]
    if d % 4 == 1:
        bases.append(q(d, F(1, 2), F(-3, 2)))
    for x in bases:
        assert x**1 is x
        for k, reference in _fraction_powers(x, -20, 41).items():
            got = x**k
            assert got == reference, (x, k)
            assert type(got.a) is F and type(got.b) is F
            assert got.norm() == got.a * got.a - d * got.b * got.b == x.norm() ** k


def _triple_power_reference(d, x, y, m, k):
    """((x + y*sqrt(d))/m)^k as a Fraction pair by |k|-fold products, a negative
    k starting from conj / norm; independent of QuadElem and of the kernel."""
    a, b = F(x, m), F(y, m)
    if k < 0:
        n = a * a - d * b * b
        a, b, k = a / n, -b / n, -k
    out = (F(1), F(0))
    for _ in range(k):
        out = (out[0] * a + d * out[1] * b, out[0] * b + out[1] * a)
    return out


@pytest.mark.parametrize("d", (2, 5, 13, 17, 34, 41))
def test_pow_scaled_matches_k_fold_fraction_products(d):
    """The kernel on units, xi elements over p, xi_2 / 2 and other half-coordinate
    bases, rational, unreduced and negative-denominator triples: the Fraction
    reference's value, in lowest terms with m > 0."""
    ctx = make_context(d)
    entries = spectrum(ctx, 23).entries
    bases = [ctx.eta.scaled_coords(), ctx.eps.scaled_coords(), (3, -2, 7), (-11, 1, 4), (6, 4, 10), (5, 1, -3)]
    bases += [(e.x, -e.y, e.p) for e in entries[:3]]
    half_xi2 = [(e.x, e.y, 2) for e in entries if e.p == 2 and d % 8 == 1]
    assert len(half_xi2) == (d % 8 == 1)
    bases += half_xi2
    if d % 4 == 1:
        bases += [(1, -3, 2), (-7, 5, 2)]
    for base in bases:
        for k in range(-6, 7):
            x, y, m = quadfield._pow_scaled(d, *base, k)
            assert m > 0 and gcd(x, y, m) == 1, (base, k)
            assert (F(x, m), F(y, m)) == _triple_power_reference(d, *base, k), (base, k)


def test_pow_scaled_refuses_a_zero_base_inverse_and_a_non_int_exponent():
    for d in (2, 5, 34):
        assert quadfield._pow_scaled(d, 0, 0, 1, 0) == (1, 0, 1)
        assert quadfield._pow_scaled(d, 0, 0, 1, 3) == (0, 0, 1)
        for k in (-1, -4):
            with pytest.raises(ZeroDivisionError, match="zero-norm element has no inverse"):
                quadfield._pow_scaled(d, 0, 0, 1, k)
        for k in (2.0, 1.0, 0.0, F(1), "2", True, False):
            with pytest.raises(ValueError, match="exponent must be an integer"):
                quadfield._pow_scaled(d, 1, 1, 1, k)


def test_norm_matches_fraction_coordinates():
    rng = random.Random(3)
    for d in (2, 3, 5, 13, 17, 21, 34):
        for _ in range(200):
            a = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
            b = F(rng.randint(-10**12, 10**12), rng.randint(1, 10**6))
            x = q(d, a, b)
            assert x.norm() == a * a - d * b * b
            assert type(x.norm()) is F


def test_sub_refuses_a_float_like_add():
    with pytest.raises(TypeError):
        q(2, 1, 1) - 1.5
    with pytest.raises(TypeError):
        q(2, 1, 1) + 1.5
    with pytest.raises(TypeError):
        q(2, 1, 1) * "x"
    with pytest.raises(TypeError):
        q(2, 1, 1) / "x"
    assert q(2, 1, 1) - F(1, 2) == q(2, F(1, 2), 1)


def test_pow_of_zero_norm_rejected():
    for d in (2, 5, 34):
        zero = q(d, 0, 0)
        assert zero**0 == q(d, 1, 0) and zero**1 is zero and zero**3 == zero
        for k in (-1, -2, -7):
            with pytest.raises(ZeroDivisionError, match="zero-norm element has no inverse"):
                zero**k
        with pytest.raises(ZeroDivisionError, match="zero-norm element has no inverse"):
            zero.inverse()


def test_int_coords():
    assert q(34, 35, 6).int_coords() == (35, 6)
    with pytest.raises(ValueError, match="does not have integer coordinates"):
        q(5, F(1, 2), F(1, 2)).int_coords()


def test_exact_div():
    assert exact_div(q(10, 7, 2), q(10, 3, 1)) == q(10, -1, 1)
    assert exact_div(q(2, 3, 1), q(2, 1, 1)) == q(2, -1, 2)
    # the quotient may be a half of O_K, which is outside Z[sqrt(d)]
    half = exact_div(q(5, 3, 1), q(5, 2, 0))
    assert half == q(5, F(3, 2), F(1, 2)) and half.scaled_coords()[2] != 1
    # O_K membership is divisibility by 1: half-odd coordinates only when d = 1 mod 4
    assert exact_div(q(5, F(1, 2), F(1, 2)), q(5, 1, 0)) == q(5, F(1, 2), F(1, 2))
    assert exact_div(q(2, F(1, 2), F(1, 2)), q(2, 1, 0)) is None
    assert exact_div(q(5, F(1, 2), F(1, 3)), q(5, 1, 0)) is None
    assert exact_div(q(5, 1, F(1, 2)), q(5, 1, 0)) is None


def test_exact_div_zero_norm_divisor():
    with pytest.raises(ZeroDivisionError):
        exact_div(q(2, 1, 1), q(2, 0, 0))


def test_exact_div_checks_the_divisor_before_the_field():
    with pytest.raises(ZeroDivisionError):
        exact_div(q(2, 1, 1), q(5, 0, 0))
    with pytest.raises(FieldMismatchError):
        exact_div(q(2, 1, 1), q(5, 1, 1))


def _in_ok(g):
    """Membership in O_K: integer coordinates, or two halves of odd integers when d = 1 mod 4."""
    dens = g.a.denominator, g.b.denominator
    return dens == (1, 1) or (g.d % 4 == 1 and dens == (2, 2))


@pytest.mark.parametrize("d", (2, 3, 5, 13, 17, 21, 34))
def test_exact_div_matches_division_in_the_field(d):
    """The integer divisibility test returns what dividing in the field and
    testing the quotient for O_K returns, on integral, half-odd and other
    rational operands, and on products beta*gamma, which mostly divide."""
    rng = random.Random(100 * d + 1)
    odd = lambda: 2 * rng.randint(-15, 15) + 1
    makers = (
        lambda: q(d, rng.randint(-30, 30), rng.randint(-30, 30)),
        lambda: q(d, F(odd(), 2), F(odd(), 2)),
        lambda: q(d, F(rng.randint(-30, 30), rng.randint(1, 9)), F(rng.randint(-30, 30), rng.randint(1, 9))),
    )
    elems = [e for e in (rng.choice(makers)() for _ in range(30)) if e.a or e.b]
    pairs = [(rng.choice(elems), beta) for beta in elems]
    pairs += [(beta * gamma, beta) for beta in elems for gamma in rng.sample(elems, 5)]
    divided = halves = 0
    for alpha, beta in pairs:
        reference = alpha / beta
        reference = reference if _in_ok(reference) else None
        got = exact_div(alpha, beta)
        assert got == reference, (alpha, beta)
        if got is not None:
            divided += 1
            halves += got.a.denominator == 2
            assert type(got.a) is F and type(got.b) is F
            assert hash(got) == hash(reference)
    assert len(pairs) // 5 <= divided < len(pairs)
    assert bool(halves) == (d % 4 == 1)


def test_squarefree_validation():
    for bad in (0, 1, 4, 8, 9, 12, 18, 45, -2):
        with pytest.raises(NotSquareFreeError):
            QuadElem(bad, F(1), F(1))
    assert is_squarefree(30)
    assert not is_squarefree(49)


def test_render():
    assert render(q(34, 35, 6)) == "35+6√34"
    assert render(q(5, F(1, 2), F(1, 2))) == "(1+√5)/2"
    assert render(q(2, 3, 1)) == "3+√2"
    assert render(q(2, -1, 2)) == "-1+2√2"
    assert render(q(2, 3, -1)) == "3-√2"
    assert render(q(2, 5, 0)) == "5"
    assert render(q(2, 0, 2)) == "2√2"
    assert render(q(34, 35, 6), ascii_mode=True) == "35+6*sqrt(34)"
    assert render(q(29, F(5, 2), F(1, 2)), ascii_mode=True) == "(5+sqrt(29))/2"
    assert render(q(34, F(5, 3), F(1, 3))) == "(5+√34)/3"


def test_render_rat_and_signed_power():
    assert render_rat(F(-7, 9)) == "-7/9"
    assert render_rat(F(4, 2)) == "2"
    assert render_signed_power(1, 3, 1) == "3"
    assert render_signed_power(-1, 3, 2, ascii_mode=True) == "-3^2"
    assert render_signed_power(-1, 3, 2) == "-3²"
    assert render_signed_power(1, 2, 3, ascii_mode=True) == "2^3"


_ds = st.sampled_from([2, 3, 5, 10, 13, 17, 34])
_coords = st.fractions(min_value=-8, max_value=8, max_denominator=6)


@given(_ds, _coords, _coords, _coords, _coords)
def test_norm_is_multiplicative(d, a1, b1, a2, b2):
    x, y = QuadElem(d, a1, b1), QuadElem(d, a2, b2)
    assert (x * y).norm() == x.norm() * y.norm()


@given(_ds, _coords, _coords, _coords, _coords)
def test_conj_is_a_ring_map(d, a1, b1, a2, b2):
    x, y = QuadElem(d, a1, b1), QuadElem(d, a2, b2)
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


@given(_ds, _coords, _coords, st.integers(-5, 5), st.integers(-5, 5))
def test_pow_addition_law(d, a, b, m, n):
    x = QuadElem(d, a, b)
    if x.norm() != 0:
        assert x ** (m + n) == (x**m) * (x**n)


@given(_ds, _coords, _coords, _coords, _coords)
def test_exact_div_recovers_factor(d, a1, b1, a2, b2):
    beta, gamma = QuadElem(d, a1, b1), QuadElem(d, a2, b2)
    if beta.norm() != 0 and gamma.a.denominator == 1 and gamma.b.denominator == 1:
        assert exact_div(beta * gamma, beta) == gamma


def _seeded_elems(d, count=6, seed=7):
    rng = random.Random(seed * 1000 + d)
    coord = lambda: F(rng.randint(-40, 40), rng.randint(1, 9))
    elems = [q(d, coord(), coord()) for _ in range(count)]
    return [e for e in elems if e.a or e.b]


@pytest.mark.parametrize("d", (2, 5, 34))
def test_arithmetic_results_equal_validated_elements(d):
    """Results skip the constructor's checks; each must still be the element
    the public constructor builds from its coordinates."""
    elems = _seeded_elems(d)
    results = [-x for x in elems] + [x.conj() for x in elems] + [x.inverse() for x in elems]
    results += [x**k for x in elems for k in range(-2, 4)]
    for x in elems:
        for y in elems:
            results += [x + y, x - y, x * y, x / y]
        for s in (3, F(-2, 5)):
            results += [x + s, s + x, x - s, s - x, x * s, s * x, x / s]
    for r in results:
        assert r.d == d
        assert type(r.a) is F and type(r.b) is F
        rebuilt = QuadElem(d, r.a, r.b)
        assert r == rebuilt and hash(r) == hash(rebuilt)


def test_public_constructor_and_mixed_fields_still_checked():
    with pytest.raises(NotSquareFreeError):
        QuadElem(4, 1, 1)
    with pytest.raises(NotSquareFreeError):
        QuadElem.from_int_pair(4, 1, 1)
    x, y = q(2, 1, 1), q(5, 3, 1)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(FieldMismatchError):
            op()
