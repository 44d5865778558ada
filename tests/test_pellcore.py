import dataclasses
import sys
import threading
import time
from fractions import Fraction as F
from math import isqrt

import pytest
from sympy.solvers.diophantine.diophantine import diop_DN

from pellbisect import pellcore
from pellbisect.arith import factorize, is_prime, is_square, is_squarefree, legendre, primes_upto
from pellbisect.pellcore import (
    PellContext,
    class_number,
    continued_fraction_sqrt,
    make_context,
    neg_pell_rational,
    pell_sequence,
    splits,
)
from pellbisect.quadfield import NotSquareFreeError, QuadElem, render
from pellbisect.solver import strict_exists

TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)

# (d, eta string, norm_eta, (f1, g1), h)
REFERENCE_CONTEXTS = {
    2: ("1+√2", -1, (1, 1), 1),
    5: ("(1+√5)/2", -1, (2, 1), 1),
    10: ("3+√10", -1, (3, 1), 2),
    13: ("(3+√13)/2", -1, (18, 5), 1),
    17: ("4+√17", -1, (4, 1), 1),
    26: ("5+√26", -1, (5, 1), 2),
    29: ("(5+√29)/2", -1, (70, 13), 1),
    34: ("35+6√34", 1, (35, 6), 2),
}


def test_continued_fraction_examples():
    assert continued_fraction_sqrt(2).a0 == 1
    assert continued_fraction_sqrt(2).period == (2,)
    assert continued_fraction_sqrt(13).a0 == 3
    assert continued_fraction_sqrt(13).period == (1, 1, 1, 1, 6)
    assert continued_fraction_sqrt(34).a0 == 5
    assert continued_fraction_sqrt(34).period == (1, 4, 1, 10)


def test_continued_fraction_rejects_bad_d():
    with pytest.raises(NotSquareFreeError):
        continued_fraction_sqrt(12)


@pytest.mark.parametrize("d", TABLE_DS)
def test_reference_contexts(d):
    eta_str, norm_eta, eps, h = REFERENCE_CONTEXTS[d]
    ctx = make_context(d)
    assert render(ctx.eta) == eta_str
    assert ctx.norm_eta == norm_eta
    assert (ctx.f1, ctx.g1) == eps
    assert ctx.h == h
    assert ctx.neg_pell_integral == (norm_eta == -1)
    assert ctx.neg_pell_rational


def test_context_34_flags():
    ctx = make_context(34)
    assert not ctx.neg_pell_integral
    assert ctx.neg_pell_rational
    assert ctx.disc == 136


def test_disc_convention():
    assert make_context(13).disc == 13
    assert make_context(2).disc == 8


def test_a_context_stores_only_its_units():
    assert [f.name for f in dataclasses.fields(PellContext)] == ["d", "eta", "eps"]
    ctx = make_context(34)
    derived = (ctx.disc, ctx.norm_eta, ctx.eta_in_zd, ctx.neg_pell_integral,
               ctx.neg_pell_rational, ctx.h)
    assert derived == (136, 1, True, False, True, 2)
    assert set(getattr(ctx, "__dict__", {})) <= {"d", "eta", "eps"}


def _clear_program_caches():
    """Empty every functools cache in the package, as the benchmark does
    before each cold round."""
    for name, mod in list(sys.modules.items()):
        if name == "pellbisect" or name.startswith("pellbisect."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_the_class_number_is_memoized_per_d_until_a_cache_sweep(monkeypatch):
    calls: list[int] = []
    real = pellcore._narrow_class_number
    monkeypatch.setattr(pellcore, "_narrow_class_number", lambda D: calls.append(D) or real(D))
    _clear_program_caches()
    assert make_context(34).h == 2 and class_number(34) == 2
    assert calls == [136]
    _clear_program_caches()
    assert make_context(34).h == 2
    assert calls == [136, 136]


def test_reading_h_does_not_wait_for_another_d(monkeypatch):
    """While one thread computes h for d = 7, h of d = 34 is answered at once."""
    _clear_program_caches()
    entered, gate = threading.Event(), threading.Event()
    real = pellcore._narrow_class_number

    def slow(D):
        if D == 28:
            entered.set()
            gate.wait(2.0)
        return real(D)

    monkeypatch.setattr(pellcore, "_narrow_class_number", slow)
    seen = []
    worker = threading.Thread(target=lambda: seen.append(make_context(7).h))
    worker.start()
    try:
        assert entered.wait(5.0)
        start = time.perf_counter()
        assert make_context(34).h == 2
        assert time.perf_counter() - start < 0.5
    finally:
        gate.set()
        worker.join()
    assert seen == [1]


@pytest.mark.parametrize("d", TABLE_DS + (3, 6, 7, 15, 21, 30, 33, 37))
def test_eps_is_eta_or_its_cube(d):
    ctx = make_context(d)
    if ctx.eta_in_zd:
        assert ctx.eps == ctx.eta
    else:
        assert ctx.eps == ctx.eta**3


@pytest.mark.parametrize("d", TABLE_DS)
def test_eta_is_minimal_unit(d):
    """No unit of O_K has a smaller positive sqrt(d)-coordinate: brute search
    over the integer and (for d = 1 mod 4) half-integer grids up to g1."""
    ctx = make_context(d)
    candidates = []
    for y in range(1, ctx.g1 + 1):
        for target in (1, -1):
            x2 = d * y * y + target
            if x2 > 0 and is_square(x2):
                candidates.append(QuadElem.from_int_pair(d, isqrt(x2), y))
    if d % 4 == 1:
        for v in range(1, 2 * ctx.g1 + 1, 2):
            for target in (4, -4):
                u2 = d * v * v + target
                if u2 > 0 and is_square(u2):
                    candidates.append(QuadElem(d, F(isqrt(u2), 2), F(v, 2)))
    best = min(candidates, key=lambda e: e.b)
    assert ctx.eta.b == best.b
    assert abs(ctx.eta.norm()) == 1


def test_eta_matches_sympy():
    """For d = 1 mod 4, eta is the minimal odd solution of x^2 - d y^2 = +-4,
    halved, and eps when there is none."""
    for d in range(5, 3000, 4):
        if not is_squarefree(d):
            continue
        odd = [(abs(x), abs(y)) for n in (-4, 4) for x, y in diop_DN(d, n) if x % 2 and y % 2]
        ctx = make_context(d)
        if odd:
            u, v = min(odd, key=lambda xy: (xy[1], xy[0]))
            assert ctx.eta == QuadElem(d, F(u, 2), F(v, 2)), d
        else:
            assert ctx.eta == ctx.eps, d


def _reference_icbrt(n):
    c = 1 << -(-n.bit_length() // 3)  # above the cube root; Newton descends
    while True:
        nxt = (2 * c + n // (c * c)) // 3
        if nxt >= c:
            return c
        c = nxt


def _reference_units(d):
    """The units as found before they came from the expansion of omega: eps from the
    period of sqrt(d), then eta = (u + v sqrt(d))/2 with u^3 - 3 N u = 2 f1 for d = 5 mod 8."""
    a0 = isqrt(d)
    p, q = a0, d - a0 * a0
    start, period = (p, q), []
    while True:
        a = (a0 + p) // q
        period.append(a)
        p = a * q - p
        q = (d - p * p) // q
        if (p, q) == start:
            break
    f0, f1, g0, g1 = 1, a0, 0, 1
    for a in period[:-1]:
        f0, f1, g0, g1 = f1, a * f1 + f0, g1, a * g1 + g0
    eps, norm = QuadElem(d, f1, g1), f1 * f1 - d * g1 * g1
    if d % 8 == 5:
        c = _reference_icbrt(2 * f1)
        for u in (c, c + 1):
            if u % 2 == 1 and u**3 - 3 * norm * u == 2 * f1:
                v2, rem = divmod(u * u - 4 * norm, d)
                v = isqrt(v2)
                if rem == 0 and v * v == v2 and v % 2 == 1:
                    return QuadElem(d, F(u, 2), F(v, 2)), eps
    return eps, eps


def test_units_match_the_sqrt_d_expansion_and_cube_root():
    """Every square-free d < 20000: eta from omega's expansion and eps = eta or eta^3
    equal the least unit of Z[sqrt(d)] and its half-coordinate cube root."""
    for d in range(2, 20000):
        if is_squarefree(d):
            ctx = make_context(d)
            assert (ctx.eta, ctx.eps) == _reference_units(d), d


def test_pell_sequence_values():
    assert pell_sequence(2, 1) == (1, 1)
    assert pell_sequence(2, 3) == (7, 5)
    assert pell_sequence(5, 2) == (9, 4)


def test_pell_sequence_rejects_nonpositive():
    with pytest.raises(ValueError):
        pell_sequence(2, 0)


@pytest.mark.parametrize("d", (2, 5, 10, 34))
def test_pell_sequence_recurrence_and_powers(d):
    ctx = make_context(d)
    prev = None
    for n in range(1, 9):
        f, g = pell_sequence(d, n)
        assert QuadElem.from_int_pair(d, f, g) == ctx.eps**n
        if prev is not None:
            pf, pg = prev
            assert (f, g) == (ctx.f1 * pf + d * ctx.g1 * pg, ctx.f1 * pg + ctx.g1 * pf)
            assert g > pg
        prev = (f, g)


def test_splits_examples():
    assert splits(2, 7)
    assert not splits(2, 3)
    assert splits(17, 2)
    assert not splits(5, 2)
    assert not splits(10, 5)  # ramified
    with pytest.raises(ValueError):
        splits(2, 6)


def test_splits_matches_quadratic_residues():
    for d in TABLE_DS:
        for p in primes_upto(50):
            if p == 2 or d % p == 0:
                continue
            solvable = any(x * x % p == d % p for x in range(p))
            assert splits(d, p) == solvable


KNOWN_CLASS_NUMBERS = {
    2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 14: 1, 15: 2,
    17: 1, 19: 1, 21: 1, 22: 1, 23: 1, 26: 2, 29: 1, 30: 2, 33: 1,
    34: 2, 37: 1,
}


@pytest.mark.parametrize("d,h", sorted(KNOWN_CLASS_NUMBERS.items()))
def test_class_numbers(d, h):
    assert class_number(d) == h


def test_neg_pell_rational():
    assert neg_pell_rational(34)
    assert not neg_pell_rational(3)
    assert neg_pell_rational(2)
    assert not neg_pell_rational(15)
    assert neg_pell_rational(26)


def test_neg_pell_integral_matches_brute_force():
    for d in TABLE_DS:
        ctx = make_context(d)
        found = any(
            is_square(d * y * y - 1) for y in range(1, ctx.g1 + 1)
        )
        assert ctx.neg_pell_integral == found


def test_half_unit_only_for_d_5_mod_8():
    # integral eta is forced unless d = 5 mod 8
    for d in (2, 3, 6, 7, 10, 17, 33, 41):
        assert make_context(d).eta_in_zd
    for d in (5, 13, 21, 29):
        assert not make_context(d).eta_in_zd
    assert make_context(37).eta_in_zd  # d = 5 mod 8 but no half unit


def test_integral_negative_pell_implies_rational():
    for d in range(2, 61):
        try:
            ctx = make_context(d)
        except NotSquareFreeError:
            continue
        if ctx.neg_pell_integral:
            assert ctx.neg_pell_rational


def test_number_theory_helpers():
    assert [p for p in primes_upto(30)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert is_prime(97) and not is_prime(91)
    assert legendre(2, 7) == 1 and legendre(3, 7) == -1


def _ctx34():
    return make_context(34)


def _spec34():
    return pellcore.spectrum(_ctx34(), 97)


@pytest.mark.parametrize("integer_call, float_call, error, message", [
    pytest.param(lambda: pellcore.xi(_ctx34(), 3), lambda: pellcore.xi(_ctx34(), 3.0),
                 ValueError, "^3.0 is not prime$", id="xi"),
    pytest.param(_spec34, lambda: pellcore.spectrum(_ctx34(), 97.0),
                 ValueError, "^pmax must be at least 2$", id="spectrum"),
    pytest.param(lambda: strict_exists(_ctx34(), _spec34(), 9), lambda: strict_exists(_ctx34(), _spec34(), 9.0),
                 ValueError, "^z must be an integer > 1$", id="strict_exists"),
    pytest.param(lambda: QuadElem(34, 1, 1), lambda: QuadElem(34.0, 1, 1),
                 NotSquareFreeError, "got 34.0$", id="QuadElem"),
    pytest.param(_ctx34, lambda: make_context(34.0), NotSquareFreeError, "got 34.0$", id="make_context"),
])
def test_an_integral_float_raises_cold_and_warm(integer_call, float_call, error, message):
    """A float equal to an integer is refused where it enters, so the answer
    does not depend on whether a cache keyed by the equal integer is warm."""
    _clear_program_caches()
    with pytest.raises(error, match=message):
        float_call()
    integer_call()
    with pytest.raises(error, match=message):
        float_call()
