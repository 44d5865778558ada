import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest

from pellbisect.oracle import SearchBox, brute_rational_pell
from pellbisect.pellcore import make_context, spectrum
from pellbisect.quadfield import NotSquareFreeError
from pellbisect.rationalpell import RationalPellPoint, _family, decompose_rational, generate_rational, rational_family
from pellbisect.solver import (Representation, XiPower, decompose_square, evaluate_representation,
                               validate_representation)

SRC = Path(__file__).resolve().parents[1] / "src"
# each lies on its curve for its own d, which is no field index: 4 and 1 are squares,
# -1 is negative and 34.0 is a float
BAD_D_POINTS = ((4, 1, 0, 0), (1, 0, 1, 1), (-1, 0, 1, 0), (34.0, 35, 6, 0))


def ctx_spec(d, pmax=97):
    ctx = make_context(d)
    return ctx, spectrum(ctx, pmax)


def test_generate_examples():
    ctx, spec = ctx_spec(2)
    pt = generate_rational(ctx, spec, Representation(d=2, n=-1, terms=(XiPower(7, 2),)))
    assert (pt.x, pt.y, pt.r) == (F(1, 7), F(5, 7), 1)

    ctx, spec = ctx_spec(34)
    pt = generate_rational(ctx, spec, Representation(d=34, terms=(XiPower(3, 1),)))
    assert (pt.x, pt.y, pt.r) == (F(5, 3), F(1, 3), 1)

    ctx, spec = ctx_spec(2)
    pt = generate_rational(ctx, spec, Representation(d=2, terms=(XiPower(7, 2),)))
    assert (pt.x, pt.y, pt.r) == (F(11, 7), F(6, 7), 0)


def test_generate_rejects_odd_parity():
    ctx, spec = ctx_spec(34)
    with pytest.raises(ValueError, match="parity"):
        generate_rational(ctx, spec, Representation(d=34, terms=(XiPower(47, 1),)))


@pytest.mark.parametrize("n", (1, 2))
def test_generate_rejects_a_representation_of_another_d(n):
    ctx, spec = ctx_spec(2, 31)
    with pytest.raises(ValueError, match="representation and context disagree on d"):
        generate_rational(ctx, spec, Representation(d=34, n=n))


def test_point_invariant_enforced():
    with pytest.raises(ValueError):
        RationalPellPoint(2, F(1, 2), F(1, 2), 1)
    with pytest.raises(ValueError, match="r must be 0 or 1"):
        RationalPellPoint(2, 1, 0, 2)


@pytest.mark.parametrize("args", BAD_D_POINTS, ids=repr)
def test_point_checks_its_field_index(args):
    with pytest.raises(NotSquareFreeError):
        RationalPellPoint(*args)


def test_point_checks_its_field_index_under_optimize():
    code = (
        "from pellbisect import NotSquareFreeError\n"
        "from pellbisect.rationalpell import RationalPellPoint\n"
        "print(__debug__)\n"
        f"for args in {BAD_D_POINTS!r}:\n"
        "    try:\n"
        "        print(RationalPellPoint(*args))\n"
        "    except NotSquareFreeError:\n"
        "        print('NotSquareFreeError')\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert r.stdout.split() == ["False"] + ["NotSquareFreeError"] * len(BAD_D_POINTS), r.stdout + r.stderr


def test_decompose_examples():
    ctx, spec = ctx_spec(34)
    rep = decompose_rational(ctx, spec, RationalPellPoint(34, F(5, 3), F(1, 3), 1))
    assert rep.n == 0 and rep.terms == (XiPower(3, 1, False),)
    assert rep.scale == F(1, 3)

    ctx, spec = ctx_spec(2)
    rep = decompose_rational(ctx, spec, RationalPellPoint(2, F(1, 7), F(5, 7), 1))
    assert rep.n == -1 and rep.terms == (XiPower(7, 2, False),)

    rep = decompose_rational(ctx, spec, RationalPellPoint(2, F(1), F(0), 0))
    assert rep.n == 0 and rep.terms == () and rep.scale == 1
    with pytest.raises(ValueError, match="point and context disagree on d"):
        decompose_rational(ctx, spec, RationalPellPoint(34, F(5, 3), F(1, 3), 1))


TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)


def test_decompose_integral_point_is_a_unit_power():
    """+-eta^n for n in -3..3 on each table d, as a rational point, peels to the unit power alone,
    the half-coordinate powers of d = 5 mod 8 too, since xi_2 / 2 is a unit there.  Doubled, each
    power in Z[sqrt(d)] peels to the same power with scale 2 through decompose_square."""
    ctx, spec = ctx_spec(5)
    rep = decompose_rational(ctx, spec, RationalPellPoint(5, F(2), F(1), 1))
    assert rep.terms == () and rep.n == 3  # 2 + sqrt(5) = eta^3
    checked = squared = 0
    for d in TABLE_DS:
        ctx, spec = ctx_spec(d)
        for n in range(-3, 4):
            for sign in (1, -1):
                unit = evaluate_representation(Representation(d, sign, n=n))
                point = RationalPellPoint(d, unit.a, unit.b, 0 if unit.norm() == 1 else 1)
                assert decompose_rational(ctx, spec, point) == Representation(d, sign, n=n), (d, n, sign)
                checked += 1
                if unit.a.denominator == unit.b.denominator == 1:
                    x, y = unit.int_coords()
                    assert decompose_square(ctx, spec, 2 * x, 2 * y) == Representation(d, sign, n=n, scale=F(2))
                    squared += 1
    assert (checked, squared) == (8 * 7 * 2, 2 * (5 * 7 + 3 * 3))


@pytest.mark.parametrize("d", TABLE_DS)
def test_family_labels_come_back_from_their_points(d):
    """Each candidate of rational_family's search (at most 2 terms, n in -3..3, pmax 31) comes back
    from its point as itself, up to the scale, except that on d = 5 mod 8 a xi_2 goes back into
    the unit; every label that comes back is valid."""
    ctx, spec = ctx_spec(d, 31)
    with_xi_2 = 0
    for rep in _family(ctx, spec.primes, 2, range(-3, 4)):
        back = decompose_rational(ctx, spec, generate_rational(ctx, spec, rep))
        if d % 8 == 5 and any(t.p == 2 for t in rep.terms):
            assert all(t.p != 2 for t in back.terms), rep
            with_xi_2 += 1
        else:
            assert replace(back, scale=F(1)) == rep, rep
        assert validate_representation(back), back
    assert (with_xi_2 > 0) == (d % 8 == 5)


def test_parity_law():
    """r flips with the unit exponent exactly when the negative Pell equation
    is integrally solvable, and with one extra negative-norm factor pair
    otherwise; bumping a term exponent by 2 never changes r."""
    ctx, spec = ctx_spec(2)
    base = Representation(d=2, n=0, terms=(XiPower(7, 2),))
    assert generate_rational(ctx, spec, base).r == 0
    assert generate_rational(ctx, spec, Representation(d=2, n=1, terms=(XiPower(7, 2),))).r == 1
    assert generate_rational(ctx, spec, Representation(d=2, n=0, terms=(XiPower(7, 4),))).r == 0

    ctx, spec = ctx_spec(34)
    assert generate_rational(ctx, spec, Representation(d=34, terms=(XiPower(3, 1),))).r == 1
    assert generate_rational(ctx, spec, Representation(d=34, terms=(XiPower(3, 3),))).r == 1
    assert generate_rational(
        ctx, spec, Representation(d=34, terms=(XiPower(3, 1), XiPower(5, 1)))
    ).r == 0
    assert generate_rational(
        ctx, spec, Representation(d=34, n=1, terms=(XiPower(3, 1),))
    ).r == 1  # unit has norm +1 here, so n cannot flip r


@pytest.mark.parametrize("d", (2, 5, 13, 34))
def test_desk_scale_roundtrip(d):
    ctx, spec = ctx_spec(d)
    box = SearchBox(y_bound=400, denominator_bound=12)
    for x, y in brute_rational_pell(d, 1, box):
        pt = RationalPellPoint(d, x, y, 1)
        rep = decompose_rational(ctx, spec, pt)
        back = generate_rational(ctx, spec, rep)
        assert (back.x, back.y, back.r) == (x, y, 1)


def test_no_rational_negative_points_when_forbidden():
    # 3 = 3 mod 4: the negative equation has no rational points at all
    assert brute_rational_pell(3, 1, SearchBox(y_bound=200, denominator_bound=25)) == []


@pytest.mark.parametrize("d", (3, 7, 15, 21))
def test_generator_cannot_reach_r1_when_forbidden(d):
    """Without a rational negative-Pell point, every negative-norm spectrum
    entry has odd level, so the evenness constraint forces r = 0."""
    ctx, spec = ctx_spec(d, pmax=31)
    for e in spec.entries:
        if e.norm_sign == -1:
            assert e.l % 2 == 1
        exp = 2 if e.l % 2 else 1
        pt = generate_rational(
            ctx, spec, Representation(d=d, terms=(XiPower(e.p, exp),))
        )
        assert pt.r == 0


def _has_negative_norm_core(rep):
    return rep.core is not None and rep.core.x**2 - rep.d * rep.core.y**2 < 0


@pytest.mark.parametrize("d", (37, 79, 101, 141, 145))
def test_roundtrip_with_negative_norm_cores(d):
    """Both signs of the equation: for d = 37, 101 and 145, where N(eta) = -1,
    many of these points need a negative-norm core, which flips r as well."""
    ctx, spec = ctx_spec(d)
    box = SearchBox(y_bound=400, denominator_bound=30)
    negative_cores = 0
    for r in (0, 1):
        for x, y in brute_rational_pell(d, r, box):
            rep = decompose_rational(ctx, spec, RationalPellPoint(d, x, y, r))
            back = generate_rational(ctx, spec, rep)
            assert (back.x, back.y, back.r) == (x, y, r)
            negative_cores += _has_negative_norm_core(rep)
    assert negative_cores > 0 or not ctx.neg_pell_integral


def test_negative_norm_core_without_integral_negative_pell():
    ctx, spec = ctx_spec(79)
    assert not ctx.neg_pell_integral
    pt = RationalPellPoint(79, F(124, 45), F(13, 45), 0)
    rep = decompose_rational(ctx, spec, pt)
    assert _has_negative_norm_core(rep)  # 2^2 - 79 * 1^2 = -75
    back = generate_rational(ctx, spec, rep)
    assert (back.x, back.y, back.r) == (pt.x, pt.y, 0)


def test_rational_family_takes_the_values_of_any_iterable_once():
    """An iterator, a generator and a list of unit exponents give the points of the range."""
    ctx = make_context(34)
    expected = rational_family(ctx, -1, 2, range(-2, 3), 31)
    assert len(expected) == 80
    for n_range in (iter(range(-2, 3)), (n for n in range(-2, 3)), list(range(-2, 3))):
        assert rational_family(ctx, -1, 2, n_range, 31) == expected
