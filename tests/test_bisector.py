import random
from fractions import Fraction as F

import pytest

from pellbisect.bisector import (
    BisectorTriple,
    NoRationalBisector,
    TrivialPairError,
    bisect,
    case1_generate,
    case2_generate,
    classify_pair,
    from_pell_points,
    integral_generate,
    integral_generate2,
    verify_star,
)
from pellbisect.oracle import tangent_bisector_check
from pellbisect.pellcore import make_context
from pellbisect.quadfield import QuadElem


def test_verify_star_fixtures():
    assert verify_star(F(3, 4), F(12, 5), F(9, 7))
    assert verify_star(F(1, 7), F(23, 7), F(6, 7))
    assert verify_star(1, 7, 2)
    assert verify_star(F(5), F(5), F(123, 7))  # trivial pairs always satisfy it
    assert not verify_star(1, 7, 3)


def test_triple_invariant_enforced():
    with pytest.raises(ValueError):
        BisectorTriple(1, 7, 3)
    assert BisectorTriple(5, 5, 1).trivial
    assert not BisectorTriple(1, 7, 2).trivial


def test_classify_pair():
    cls = classify_pair(F(3, 4), F(12, 5))
    assert (cls.d, cls.a2, cls.b2) == (1, F(5, 4), F(13, 5))
    cls = classify_pair(F(1, 7), F(23, 7))
    assert (cls.d, cls.a2, cls.b2) == (2, F(5, 7), F(17, 7))
    with pytest.raises(NoRationalBisector):
        classify_pair(1, 2)
    with pytest.raises(TrivialPairError):
        classify_pair(F(3, 4), F(-3, 4))


def test_bisect():
    assert bisect(F(3, 4), F(12, 5)) == (F(9, 7), F(-7, 9))
    assert bisect(F(1, 7), F(23, 7)) == (F(6, 7), F(-7, 6))
    assert bisect(1, 7) == (2, F(-1, 2))


def test_case1_generate():
    t1, t2 = case1_generate(2, 3, 1)
    assert (t1.a, t1.b, t1.c) == (F(3, 4), F(4, 3), 1)
    assert (t2.a, t2.b, t2.c) == (F(3, 4), F(4, 3), -1)
    t1, t2 = case1_generate(2, 5, 1)
    assert (t1.a, t1.b, t1.c) == (F(3, 4), F(12, 5), F(9, 7))
    assert (t2.a, t2.b, t2.c) == (F(3, 4), F(12, 5), F(-7, 9))


def test_case1_side_conditions():
    with pytest.raises(ValueError):
        case1_generate(2, 2, 1)
    with pytest.raises(ValueError):
        case1_generate(2, -2, 1)  # l + m = 0 is inside |l| = |m|
    with pytest.raises(ValueError):
        case1_generate(1, 4, 2)  # lm = n^2
    with pytest.raises(ValueError):
        case1_generate(0, 3, 1)


def test_case2_generate():
    ctx = make_context(2)
    alpha = QuadElem(2, F(1, 7), F(5, 7))
    t1, t2 = case2_generate(ctx, alpha, ctx.eta**2 * alpha)
    assert (t1.a, t1.b, t1.c) == (F(1, 7), F(23, 7), F(6, 7))
    assert t2.c == F(-7, 6)

    ctx = make_context(34)
    alpha = QuadElem(34, F(5, 3), F(1, 3))
    t1, t2 = case2_generate(ctx, alpha, ctx.eta * alpha)
    assert (t1.a, t1.b, t1.c) == (F(5, 3), F(379, 3), F(32, 9))
    assert t2.c == F(-9, 32)


def test_case2_degenerate_inputs():
    ctx = make_context(2)
    alpha = QuadElem.from_int_pair(2, 1, 1)
    with pytest.raises(ValueError):
        case2_generate(ctx, alpha, -alpha)
    with pytest.raises(ValueError):
        case2_generate(ctx, alpha, alpha.conj())  # trivial pair a = b
    with pytest.raises(ValueError):
        case2_generate(ctx, alpha, ctx.eta**2)  # norm +1
    with pytest.raises(ValueError, match="must live in the context's field"):
        case2_generate(make_context(5), alpha, alpha)


def test_from_pell_points():
    assert from_pell_points(1, 1, 7, 5, 2) == (2, F(-1, 2))
    assert from_pell_points(F(5, 3), F(1, 3), F(379, 3), F(65, 3), 34) == (
        F(32, 9),
        F(-9, 32),
    )
    c_plus, c_minus = from_pell_points(1, 1, 1, 1, 2)
    assert c_plus == 1 and c_minus is None  # equal points kill one branch
    with pytest.raises(ValueError):
        from_pell_points(1, 1, 2, 1, 2)


def test_integral_generate():
    ctx2 = make_context(2)
    t = integral_generate(ctx2, 1, 1)
    assert (t.a, t.b, t.c) == (1, 7, 2)
    t = integral_generate(ctx2, 1, 2)
    assert (t.a, t.b, t.c) == (7, 41, 12)
    t = integral_generate(make_context(5), 1, 1)
    assert (t.a, t.b, t.c) == (2, 38, 4)


def test_integral_generate_guards():
    with pytest.raises(ValueError):
        integral_generate(make_context(34), 1, 1)  # no integral negative Pell
    with pytest.raises(ValueError):
        integral_generate(make_context(2), 0, 1)


def test_integral_generate2():
    t = integral_generate2(1)
    assert (t.a, t.b, t.c) == (1, -7, 3)
    t = integral_generate2(2)
    assert (t.a, t.b, t.c) == (7, -41, 17)
    with pytest.raises(ValueError):
        integral_generate2(0)


def test_bisectors_are_perpendicular():
    for a, b in [(F(3, 4), F(12, 5)), (F(1, 7), F(23, 7)), (F(1), F(7)), (F(2), F(38))]:
        c_plus, c_minus = bisect(a, b)
        assert c_plus * c_minus == -1
        assert verify_star(a, b, c_plus) and verify_star(a, b, c_minus)


def test_case2_roundtrips_through_bisect():
    ctx = make_context(34)
    alpha = QuadElem(34, F(5, 3), F(1, 3))
    t1, t2 = case2_generate(ctx, alpha, ctx.eta * alpha)
    assert set(bisect(t1.a, t1.b)) == {t1.c, t2.c}


def test_case2_keeps_input_slope():
    ctx = make_context(2)
    alpha = QuadElem(2, F(1, 7), F(5, 7))
    t1, _ = case2_generate(ctx, alpha, ctx.eta**2 * alpha)
    assert t1.a == alpha.a


def test_tangent_oracle_agrees_with_star():
    rng = random.Random(7)
    rats = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(300)]
    for a, b, c in zip(rats[::3], rats[1::3], rats[2::3]):
        verdict = tangent_bisector_check(a, b, c)
        if verdict is None:
            continue
        assert verdict == verify_star(a, b, c), (a, b, c)
