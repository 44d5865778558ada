import random
from fractions import Fraction as F
from math import isqrt, prod

import pytest
from sympy import factorint

from pellbisect import bisector
from pellbisect.arith import is_squarefree
from pellbisect.bisector import (
    BisectorTriple,
    NoRationalBisector,
    TrivialPairError,
    bisect,
    case1_generate,
    case2_alphas,
    case2_generate,
    classify_pair,
    from_pell_points,
    integral_generate,
    integral_generate2,
    verify_star,
)
from pellbisect.oracle import tangent_bisector_check
from pellbisect.pellcore import make_context
from pellbisect.quadfield import InvariantError, QuadElem

CASE2_DS = (2, 5, 10, 13, 17, 26, 29, 37, 41, 53)
TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)


def test_verify_star_fixtures():
    assert verify_star(F(3, 4), F(12, 5), F(9, 7))
    assert verify_star(F(1, 7), F(23, 7), F(6, 7))
    assert verify_star(1, 7, 2)
    assert verify_star(F(5), F(5), F(123, 7))  # trivial pairs always satisfy it
    assert not verify_star(1, 7, 3)


def _star_fraction(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return (a - c) ** 2 * (b * b + 1) == (b - c) ** 2 * (a * a + 1)


def test_verify_star_matches_the_fraction_formula():
    """2000 seeded triples: true triples from case I, perturbed ones, and random
    slopes that are zero, negative, equal, or have up to 60 digits."""
    rng = random.Random(2023)

    def slope():
        digits = rng.choice((1, 3, 20, 60))
        kind = rng.random()
        if kind < 0.1:
            return F(0)
        if kind < 0.2:
            return F(rng.randint(-9, 9))
        return F(rng.randint(-10**digits, 10**digits), rng.randint(1, 10**digits))

    triples = []
    while len(triples) < 2000:
        shape = rng.randrange(4)
        if shape == 0:
            size = rng.choice((10, 10**10, 10**30))
            l, m, n = (rng.randint(1, size) for _ in range(3))
            if abs(l) == abs(m) or l * m == n * n:
                continue
            t = case1_generate(l, m, rng.choice((n, -n)))[rng.randrange(2)]
            triples.append((t.a, t.b, t.c))
            triples.append((t.a, t.b, t.c + F(rng.choice((1, -1)), rng.randint(1, 10**6))))
        elif shape == 1:
            a, c = slope(), slope()
            triples += [(a, a, c), (a, c, a), (c, a, a), (a, -a, c), (a, a, a)]
        else:
            triples.append((slope(), slope(), slope()))
    holds = 0
    for a, b, c in triples:
        expected = _star_fraction(a, b, c)
        assert verify_star(a, b, c) is expected, (a, b, c)
        holds += expected
    assert 500 < holds < len(triples) - 500


def test_triple_invariant_enforced():
    with pytest.raises(ValueError):
        BisectorTriple(1, 7, 3)
    assert BisectorTriple(5, 5, 1).trivial
    assert not BisectorTriple(1, 7, 2).trivial


@pytest.mark.parametrize("inputs", [
    (1, 7, 2), (1.0, 7.0, 2.0), (F(1), 7, 2.0), (F(3, 4), F(12, 5), F(9, 7)), (0.75, F(12, 5), F(-7, 9)),
])
def test_triple_stores_each_slope_once_as_a_fraction(inputs):
    """int, float and Fraction slopes store equal Fractions with the hash of
    the Fraction triple; a Fraction input is kept as given, not rebuilt."""
    exact = tuple(F(v) for v in inputs)
    t = BisectorTriple(*inputs)
    assert (t.a, t.b, t.c) == exact and all(type(v) is F for v in (t.a, t.b, t.c))
    assert hash(t) == hash(BisectorTriple(*exact)) == hash(exact)
    assert all(s is v for s, v in zip((t.a, t.b, t.c), inputs) if type(v) is F)


@pytest.mark.parametrize("wrong", [(1, 7, 3), (1.0, 7.0, 3.0), (F(3, 4), F(12, 5), F(9, 8))])
def test_triple_rejects_a_wrong_triple_of_any_input_type(wrong):
    with pytest.raises(ValueError, match="is not a bisector triple"):
        BisectorTriple(*wrong)


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


def _case2_reference(ctx, alpha, beta):
    """case2_generate on Fraction coordinates: norms, degeneracy and both parts
    from field arithmetic."""
    if alpha.d != ctx.d or beta.d != ctx.d:
        raise ValueError("alpha and beta must live in the context's field")
    if any(x.a * x.a - ctx.d * x.b * x.b != -1 for x in (alpha, beta)):
        raise ValueError("need N(alpha) = N(beta) = -1")
    if beta in (alpha, -alpha, alpha.conj(), -alpha.conj()):
        raise ValueError("beta = +-alpha or +-alpha' is degenerate")
    c_plus = (alpha * beta).b / (alpha + beta).b
    return alpha.a, beta.a, c_plus, -1 / c_plus


def _generated(ctx, alpha, beta):
    t1, t2 = case2_generate(ctx, alpha, beta)
    assert (t1.a, t1.b) == (t2.a, t2.b)
    return t1.a, t1.b, t1.c, t2.c


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("d", CASE2_DS)
def test_case2_matches_the_fraction_reference(d):
    ctx = make_context(d)
    for j in range(1, 9):
        for i in range(j):
            alpha, beta = ctx.eta ** (2 * i + 1), ctx.eta ** (2 * j + 1)
            assert _generated(ctx, alpha, beta) == _case2_reference(ctx, alpha, beta), (i, j)


@pytest.mark.parametrize("d", CASE2_DS)
def test_case2_errors_match_the_fraction_reference(d):
    ctx = make_context(d)
    other = make_context(3)
    for i in range(4):
        alpha = ctx.eta ** (2 * i + 1)
        bad = [
            (alpha, alpha), (alpha, -alpha), (alpha, alpha.conj()), (alpha, -alpha.conj()),
            (-alpha.conj(), alpha), (alpha, ctx.eta ** (2 * i)), (ctx.eta ** (2 * i + 2), alpha),
            (alpha, alpha * alpha), (alpha, QuadElem(d, 2, 0)), (alpha, other.eta),
        ]
        for x, y in bad:
            got = _outcome(_generated, ctx, x, y)
            assert got == _outcome(_case2_reference, ctx, x, y), (i, x, y)
            assert got[0] is ValueError


def test_case2_matches_the_fraction_reference_off_the_units():
    """Elements with denominators: (1+5*sqrt(2))/7 and (5+sqrt(34))/3 times
    eps^k, |k| <= 3, eps itself, and their negatives and conjugates. On d = 2,
    N(eps) = -1, so the odd k give norm +1 elements, which must raise, and eps
    = 1+sqrt(2) shares its scaled x = 1 with (1+5*sqrt(2))/7 without being
    degenerate with it."""
    for d, alpha in ((2, QuadElem(2, F(1, 7), F(5, 7))), (34, QuadElem(34, F(5, 3), F(1, 3)))):
        ctx = make_context(d)
        elems = [alpha * ctx.eps**k for k in range(-3, 4)] + [ctx.eps]
        elems += [-x for x in elems] + [x.conj() for x in elems]
        triples = 0
        for x in elems:
            for y in elems:
                got = _outcome(_generated, ctx, x, y)
                assert got == _outcome(_case2_reference, ctx, x, y), (x, y)
                triples += len(got) == 4
        assert 0 < triples < len(elems) ** 2


def test_classify_pair_self_check_raises_a_typed_error(monkeypatch):
    """A wrong square-free kernel fails the point check with InvariantError, an
    if that also runs under python -O."""
    monkeypatch.setattr(bisector, "_squarefree_kernel", lambda n: 1)
    with pytest.raises(InvariantError):
        classify_pair(F(1), F(7))
    assert classify_pair(F(3, 4), F(12, 5)).d == 1  # a Pythagorean pair has kernel 1


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


# ---- one slope kernel: the five former slope formulas as in-test references

BOX = range(-12, 13)


def _from_pell_points_reference(a1, a2, b1, b2, d):
    """from_pell_points on Fractions: c+- = (a b2 +- a2 b)/(a2 +- b2)."""
    a1, a2, b1, b2 = (F(v) for v in (a1, a2, b1, b2))
    for x, y in ((a1, a2), (b1, b2)):
        if x * x - d * y * y != -1:
            raise ValueError(f"({x}, {y}) is not on x^2 - {d} y^2 = -1")
    c_plus = (a1 * b2 + a2 * b1) / (b2 + a2) if b2 != -a2 else None
    c_minus = (a1 * b2 - a2 * b1) / (b2 - a2) if b2 != a2 else None
    return c_plus, c_minus


def _case1_reference(l, m, n):
    """The closed forms of case I with their hand-derived guards, which let
    l*m = -n^2 through."""
    if abs(l) == abs(m) or l * m == n * n or l * m * n == 0:
        raise ValueError("excluded")
    a, b = F(l * l - n * n, 2 * l * n), F(m * m - n * n, 2 * m * n)
    return (a, b, F(l * m - n * n, (l + m) * n)), (a, b, F(-(l + m) * n, l * m - n * n))


def _integral_reference(ctx, m, n):
    """(f_k(2n-1), f_k(2n+1), g_2kn / g_k) from four powers of eps, k = 2m-1."""
    k = 2 * m - 1
    f = lambda j: (ctx.eps**j).a  # noqa: E731
    return f(k * (2 * n - 1)), f(k * (2 * n + 1)), (ctx.eps ** (2 * k * n)).b / (ctx.eps**k).b


def _integral2_reference(n):
    """(f_2n-1, -f_2n+1, f_2n) on d = 2."""
    f = lambda j: (QuadElem.from_int_pair(2, 1, 1) ** j).a  # noqa: E731
    return f(2 * n - 1), -f(2 * n + 1), f(2 * n)


def _triples(ts):
    return tuple((t.a, t.b, t.c) for t in ts)


def test_case1_never_returns_a_trivial_pair():
    """Over l, m, n in [-12, 12] every returned pair has |a| != |b| and its two
    slopes are exactly the bisectors of the pair; l*m = -n^2 (a = b) is refused
    with the other excluded shapes."""
    returned = 0
    for l in BOX:
        for m in BOX:
            for n in BOX:
                try:
                    t1, t2 = case1_generate(l, m, n)
                except ValueError:
                    assert l * m * n == 0 or abs(l) == abs(m) or abs(l * m) == n * n, (l, m, n)
                    continue
                returned += 1
                assert (t1.a, t1.b) == (t2.a, t2.b) and abs(t1.a) != abs(t1.b), (l, m, n)
                assert set(bisect(t1.a, t1.b)) == {t1.c, t2.c}, (l, m, n)
    assert returned > 10000


def test_case1_refuses_l_m_equal_to_minus_n_squared():
    with pytest.raises(ValueError, match=r"^need \|l\| != \|m\| and l\*m != \+-n\^2$"):
        case1_generate(-4, 1, -2)  # a = b = 3/4


def test_case1_matches_its_closed_forms():
    compared = 0
    for l in BOX:
        for m in BOX:
            for n in BOX:
                try:
                    expected = _case1_reference(l, m, n)
                except ValueError:
                    with pytest.raises(ValueError):
                        case1_generate(l, m, n)
                    continue
                if expected[0][0] == expected[0][1]:  # l*m = -n^2: the trivial pairs
                    assert l * m == -n * n
                    continue
                assert _triples(case1_generate(l, m, n)) == expected, (l, m, n)
                compared += 1
    assert compared > 10000


def test_integral_generate_matches_g_2kn_over_g_k():
    ds = [d for d in range(2, 100) if is_squarefree(d) and make_context(d).neg_pell_integral]
    assert len(ds) > 10
    for d in ds:
        ctx = make_context(d)
        for m in range(1, 5):
            for n in range(1, 5):
                t = integral_generate(ctx, m, n)
                assert (t.a, t.b, t.c) == _integral_reference(ctx, m, n), (d, m, n)


def test_integral_generate2_matches_f_2n():
    for n in range(1, 13):
        t = integral_generate2(n)
        assert (t.a, t.b, t.c) == _integral2_reference(n), n


def test_bisect_matches_the_fraction_from_pell_points():
    """2000 seeded case-I and case-II pairs: bisect equals the Fraction formula
    on the points classify_pair finds."""
    rng = random.Random(16)
    seeds = [(make_context(d), make_context(d).eta, make_context(d).eta ** 2) for d in CASE2_DS]
    seeds += [(make_context(2), QuadElem(2, F(1, 7), F(5, 7)), make_context(2).eta ** 2),
              (make_context(34), QuadElem(34, F(5, 3), F(1, 3)), make_context(34).eta)]
    case2 = []  # pairs of at most 4 digits, so that classify_pair's trial division stays quick
    for ctx, alpha, step in seeds:
        for i in range(-3, 4):
            for j in range(-3, 4):
                t = _outcome(case2_generate, ctx, alpha * step**i, alpha * step**j)
                if isinstance(t[0], BisectorTriple) and max(abs(v.numerator) for v in (t[0].a, t[0].b)) < 10**4:
                    case2.append((t[0].a, t[0].b))
    assert len(case2) > 100
    pairs = []
    while len(pairs) < 2000:
        if rng.randrange(2):
            l, m, n = (rng.choice((1, -1)) * rng.randint(1, 10 ** rng.randint(1, 2)) for _ in range(3))
            if abs(l) == abs(m) or abs(l * m) == n * n:
                continue
            t, _ = case1_generate(l, m, n)
            pairs.append((t.a, t.b))
        else:
            pairs.append(rng.choice(case2))
    for a, b in pairs:
        cls = classify_pair(a, b)
        assert bisect(a, b) == _from_pell_points_reference(a, cls.a2, b, cls.b2, cls.d), (a, b)


def _classify_reference(a, b):
    """classify_pair on Fractions: the square-free kernels of a^2+1 and b^2+1 from sympy's factorint."""
    if abs(a) == abs(b):
        raise TrivialPairError
    kernels, ys = [], []
    for x in (a, b):
        n = x.numerator**2 + x.denominator**2  # (x^2 + 1) * denominator^2
        kernels.append(prod(p for p, e in factorint(n).items() if e % 2))
        ys.append(F(isqrt(n // kernels[-1]), x.denominator))
    if kernels[0] != kernels[1]:
        raise NoRationalBisector
    return kernels[0], *ys


def _pair_parity(a, b):
    """classify_pair and bisect against _classify_reference and _from_pell_points_reference,
    error types included; True for a rational pair."""
    expected = _outcome_any(lambda: _classify_reference(a, b))
    cls = _outcome_any(lambda: classify_pair(a, b))
    if isinstance(expected, type):
        assert cls is expected and _outcome_any(lambda: bisect(a, b)) is expected, (a, b)
        return False
    d, a2, b2 = expected
    assert (cls.d, cls.a2, cls.b2) == expected, (a, b)
    assert bisect(a, b) == _from_pell_points_reference(a, a2, b, b2, d), (a, b)
    return True


def test_bisect_and_classify_pair_match_the_fraction_references():
    """Case-I pairs with 1 <= l, m, n <= 11 (the trivial ones too), case-II pairs of at most
    4 digits on the 8 table d, and 3000 seeded random pairs with parts of at most 4 digits."""
    case1 = [(F(l * l - n * n, 2 * l * n), F(m * m - n * n, 2 * m * n))
             for l in range(1, 12) for m in range(1, 12) for n in range(1, 12)]
    case2 = []
    for d in TABLE_DS:
        alphas = case2_alphas(make_context(d), 3)
        alphas += [-x for x in alphas] + [x.conj() for x in alphas]
        case2 += [(x.a, y.a) for x in alphas for y in alphas
                  if all(abs(v.numerator) < 10**4 and v.denominator < 10**4 for v in (x.a, y.a))]
    rng = random.Random(27)
    randoms = [tuple(F(rng.randint(-9999, 9999), rng.randint(1, 9999)) for _ in range(2)) for _ in range(3000)]
    for pairs, (least_rational, least_other) in ((case1, (1000, 100)), (case2, (100, 10)), (randoms, (0, 2900))):
        rational = sum(_pair_parity(a, b) for a, b in pairs)
        assert rational >= least_rational and len(pairs) - rational >= least_other


def test_from_pell_points_matches_the_fraction_formula_and_its_errors():
    points = [(F(1), F(1)), (F(7), F(5)), (F(-7), F(5)), (F(1, 7), F(5, 7)), (F(23, 7), F(17, 7)),
              (F(1), F(-1)), (F(2), F(1)), (F(1, 2), F(1, 3))]
    for (a1, a2) in points:
        for (b1, b2) in points:
            got = _outcome(from_pell_points, a1, a2, b1, b2, 2)
            assert got == _outcome(_from_pell_points_reference, a1, a2, b1, b2, 2), (a1, a2, b1, b2)


def _outcome_any(fn):
    try:
        return fn()
    except Exception as exc:  # a patched kernel may trip a self-check
        return type(exc)


def test_every_slope_comes_from_the_one_kernel(monkeypatch):
    """With _slopes patched to swap c+ and c-, each of the five callers
    answers differently (or raises), and each called the kernel."""
    ctx2, ctx53 = make_context(2), make_context(53)
    calls = {
        "from_pell_points": lambda: from_pell_points(1, 1, 7, 5, 2),
        "bisect": lambda: bisect(F(3, 4), F(12, 5)),
        "case1_generate": lambda: _triples(case1_generate(2, 5, 1)),
        "case2_generate": lambda: _triples(case2_generate(ctx53, ctx53.eta**3, ctx53.eta**5)),
        "integral_generate": lambda: _triples([integral_generate(ctx2, 1, 2)]),
        "integral_generate2": lambda: _triples([integral_generate2(2)]),
    }
    before = {name: call() for name, call in calls.items()}
    real, seen = bisector._slopes, []
    monkeypatch.setattr(bisector, "_slopes", lambda *coords: seen.append(coords) or real(*coords)[::-1])
    for name, call in calls.items():
        seen.clear()
        assert _outcome_any(call) != before[name], name
        assert seen, name

