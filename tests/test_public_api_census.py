"""A census of hangs and crashes across the public API: every function in
pellbisect.__all__ and every exported class whose constructor checks its fields.

Each row calls one public callable under a 0.5 s alarm. It passes if the call
returns an answer that an independent check accepts, or if it raises a
ValueError subclass. The checks never go through the code under test: the star
identity on Fractions and tangent_bisector_check for the bisector, integer norm
identities, brute-force searches written here, literature class numbers, and
sympy (continued fractions, Pell solutions, Legendre symbols, arithmetic in
Q(sqrt(d))) for the field and the solver. A timeout, a TypeError or
AttributeError from inside the package, or an InvariantError fails. No check
accepts an answer to an integer input given as a bool or a float, nor to a slope
or coordinate given as a bool. A row that
fails today is a strict xfail that names the ROADMAP item that fixes it.
"""

import re
import signal
from collections.abc import Iterable
from fractions import Fraction as F
from functools import lru_cache
from math import gcd, isqrt

import pytest
import sympy
from sympy.solvers.diophantine.diophantine import diop_DN

import pellbisect
from pellbisect import bisector, oracle
from pellbisect.arith import is_squarefree
from pellbisect.oracle import SearchBox, tangent_bisector_check
from pellbisect.pellcore import (Spectrum, XiEntry, class_number, continued_fraction_sqrt, in_s, make_context,
                                 neg_pell_rational, pell_sequence, spectrum, splits, xi)
from pellbisect.quadfield import QuadElem, exact_div, render
from pellbisect.rationalpell import RationalPellPoint, decompose_rational, generate_rational, rational_family
from pellbisect.solver import (CoreFactor, Representation, XiPower, decompose, decompose_square, decompose_strict,
                               evaluate_representation, generate_strict, solve, strict_exists,
                               validate_representation)

CAP_S = 0.5
INF = float("inf")


class CensusTimeout(Exception):
    """The call did not answer within CAP_S."""


def _capped(fn, args):
    def on_alarm(signum, frame):
        raise CensusTimeout

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, CAP_S)
    try:
        return fn(*args)
    except CensusTimeout:
        pass  # raised again below, without the frames the alarm interrupted
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    raise CensusTimeout(f"{fn.__name__} gave no answer within {CAP_S} s")


def _ints(*values):
    """Each integer input is an int: a bool or an integral float is refused, not read as a number."""
    return all(type(v) is int for v in values)


def _no_bools(*values):
    """No slope or coordinate is a bool: True and False are no numbers, so no answer to one is accepted."""
    return not any(isinstance(v, bool) for v in values)


def _star(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return (a - c) ** 2 * (b * b + 1) == (b - c) ** 2 * (a * a + 1)


def _bisects(a, b, c):
    """c is a bisector slope of the non-trivial pair (a, b)."""
    return c is not None and abs(a) != abs(b) and _star(a, b, c) and tangent_bisector_check(a, b, c) is True


def _triple_ok(t):
    return isinstance(t, bisector.BisectorTriple) and _bisects(t.a, t.b, t.c)


def _accept_verify_star(args, ans):
    return _no_bools(*args) and ans is _star(*args)


def _accept_triple(args, t):
    """A BisectorTriple may be trivial (|a| = |b|), where any c satisfies the star."""
    return _no_bools(*args) and _star(t.a, t.b, t.c) and (t.trivial or tangent_bisector_check(t.a, t.b, t.c) is True)


def _accept_classification(args, cls):
    a, b = (F(v) for v in args)
    return (_no_bools(*args) and (cls.d == 1 or is_squarefree(cls.d)) and cls.a2 > 0 and cls.b2 > 0
            and a * a + 1 == cls.d * cls.a2**2 and b * b + 1 == cls.d * cls.b2**2)


def _accept_pell_points(args, ans):
    a1, _, b1, _, d = args
    slopes = [c for c in ans if c is not None]
    return _ints(d) and _no_bools(*args) and slopes and all(
        _star(a1, b1, c) and tangent_bisector_check(a1, b1, c) is not False for c in slopes)


def _accept_bisect(args, ans):
    a, b = (F(v) for v in args)
    c_plus, c_minus = ans
    return _no_bools(*args) and _bisects(a, b, c_plus) and _bisects(a, b, c_minus) and c_plus * c_minus == -1


def _accept_pair(args, ts):
    t1, t2 = ts
    return _triple_ok(t1) and _triple_ok(t2) and (t1.a, t1.b) == (t2.a, t2.b) and t1.c * t2.c == -1


def _accept_one(args, t):
    return _triple_ok(t)


# -- independent references for the field, the solver and the oracle --------------------------

# class numbers of Q(sqrt(d)) from the literature (OEIS A003649)
H_LITERATURE = {2: 1, 10: 2, 79: 3, 82: 4, 229: 3}


def _squarefree_index(d):
    return type(d) is int and d > 1 and all(e == 1 for e in sympy.factorint(d).values())


def _q(v):
    v = F(v)
    return sympy.Rational(v.numerator, v.denominator)


@lru_cache(maxsize=None)
def _field(d):
    return sympy.QQ.algebraic_field(sympy.sqrt(d))


def _elt(d, a, b=0):
    """a + b*sqrt(d) in sympy's Q(sqrt(d)), built from the generator, so that coordinates of
    any size stay exact."""
    K = _field(d)
    return K.convert(_q(a)) + K.convert(_q(b)) * K.from_sympy(sympy.sqrt(d))


def _of(alpha):
    return _elt(alpha.d, alpha.a, alpha.b)


def _integral(d, v):
    """v is in O_K iff its minimal polynomial, which sympy gives with coprime integer
    coefficients, is monic."""
    return sympy.minimal_polynomial(_field(d).to_sympy(v), sympy.Symbol("t"), polys=True).LC() == 1


@lru_cache(maxsize=None)
def _eps(d):
    """The least unit > 1 of Z[sqrt(d)] from sympy's Pell solver: norm -1 when there is one."""
    return min(diop_DN(d, -1) or diop_DN(d, 1))


@lru_cache(maxsize=None)
def _half_unit(d):
    """O_K has a unit (u + v*sqrt(d))/2 with u, v odd."""
    return any(u % 2 and v % 2 for n in (4, -4) for u, v in diop_DN(d, n))


def _splits_ref(d, p):
    return d % 8 == 1 if p == 2 else d % p != 0 and sympy.legendre_symbol(d % p, p) == 1


def _in_s_ref(d, p):
    return _splits_ref(d, p) or (p == 2 and d % 8 == 5 and _half_unit(d))


def _least(d, p, l_max, y_max, signs):
    """The strictly primitive (l, x, y, sign) with x^2 - d y^2 = sign * p^l, least l, then y."""
    for l in range(1, l_max + 1):
        for y in range(1, y_max + 1):
            for sign in signs:
                x2 = d * y * y + sign * p**l
                if x2 > 0 and isqrt(x2) ** 2 == x2 and gcd(isqrt(x2), d * y) == 1:
                    return l, isqrt(x2), y, sign
    return None


def _strict_pairs(d, z, y_max):
    """All strictly primitive (x, y) with |x^2 - d y^2| = z and 0 < y <= y_max."""
    return {(s * isqrt(t), y) for y in range(1, y_max + 1) for t in (d * y * y + z, d * y * y - z)
            if t >= 0 and isqrt(t) ** 2 == t and gcd(isqrt(t), d * y) == 1 for s in (1, -1)}


def _pair_power(d, a, b, n):
    """(a + b*sqrt(d))^n for n >= 0 on Fractions, by squaring: sympy's own power of a field element
    multiplies its way up, and takes seconds on eta^3000 of d = 94."""
    x, y = F(1), F(0)
    while n:
        if n & 1:
            x, y = x * a + d * y * b, x * b + y * a
        a, b, n = a * a + d * b * b, 2 * a * b, n >> 1
    return x, y


def _value(rep):
    """sign * 2^m * eta^n * prod(xi_p^exp) * core * scale in sympy's Q(sqrt(d)), from the
    fields of rep, the xi entries and the unit, without the solver's evaluation."""
    d = rep.d
    eta = make_context(d).eta
    a, b = eta.a, eta.b
    if rep.n < 0:  # eta^-1 = conj(eta) / N(eta)
        a, b = a / (a * a - d * b * b), -b / (a * a - d * b * b)
    v = _elt(d, rep.sign * 2**rep.m * rep.scale) * _elt(d, *_pair_power(d, a, b, abs(rep.n)))
    for t in rep.terms:
        e, half = xi(make_context(d), t.p), 2 if t.p == 2 and d % 8 == 1 else 1
        v *= _elt(d, F(e.x, half), F(-e.y if t.conj else e.y, half)) ** t.exp
    if rep.core is not None:
        v *= _elt(d, rep.core.x, -rep.core.y if rep.core.conj else rep.core.y)
    return v


def _accept_class_number(args, h):
    return h == H_LITERATURE[args[0]]


def _accept_cf(args, cf):
    """a0 = isqrt(d), a palindromic period closing on 2*a0, and the convergent before the
    close is sympy's fundamental Pell solution; for d < 1000 also sympy's expansion."""
    (d,) = args
    f0, f1, g0, g1 = 1, cf.a0, 0, 1
    for a in cf.period[:-1]:
        f0, f1, g0, g1 = f1, a * f1 + f0, g1, a * g1 + g0
    ok = (cf.a0 == isqrt(d) and cf.period[-1] == 2 * cf.a0 and cf.period[:-1] == cf.period[-2::-1]
          and (f1, g1) == _eps(d))
    return ok and (d >= 1000 or sympy.continued_fraction_periodic(0, 1, d) == [cf.a0, list(cf.period)])


def _accept_context(args, ctx):
    """eps is sympy's least Pell unit; eta is eps, or a half-odd cube root of it when O_K has one."""
    (d,) = args
    if ctx.d != d or _of(ctx.eps) != _elt(d, *_eps(d)):
        return False
    if _half_unit(d):
        return ctx.eta.a.denominator == ctx.eta.b.denominator == 2 and _of(ctx.eta) ** 3 == _of(ctx.eps)
    return ctx.eta == ctx.eps


def _accept_neg_pell_rational(args, ans):
    """True needs a rational point of x^2 - d y^2 = -1 found by search; False needs a prime
    3 mod 4 dividing d, since -1 is then no square mod that prime."""
    (d,) = args
    if ans is True:
        return any(isqrt(d * y * y - z * z) ** 2 == d * y * y - z * z
                   for z in range(1, 60) for y in range(1, 60) if d * y * y >= z * z)
    return ans is False and any(p % 4 == 3 for p in sympy.factorint(d))


def _accept_pell_sequence(args, fg):
    d, n = args
    return _ints(n) and _elt(d, *fg) == _elt(d, *_eps(d)) ** n


def _accept_splits(args, ans):
    return ans is _splits_ref(*args)


def _accept_in_s(args, ans):
    ctx, p = args
    return ans is _in_s_ref(ctx.d, p)


def _accept_xi(args, e):
    ctx, p = args
    if e is None:
        return not _in_s_ref(ctx.d, p)
    signs = (1,) if diop_DN(ctx.d, -1) else (1, -1)
    return (e.d, e.p) == (ctx.d, p) and (e.l, e.x, e.y, e.norm_sign) == _least(ctx.d, p, 6, 3000, signs)


def _entry_ok(e):
    return (_squarefree_index(e.d) and all(type(v) is int for v in (e.p, e.l, e.x, e.y, e.norm_sign))
            and e.l >= 1 and e.norm_sign in (1, -1) and e.x > 0 and e.y > 0 and gcd(e.x, e.d * e.y) == 1
            and e.x * e.x - e.d * e.y * e.y == e.norm_sign * e.p**e.l)


def _accept_spectrum(args, spec):
    """Every prime up to pmax that the reference puts in S, in order, each with a valid entry."""
    ctx, pmax = args
    primes = [p for p in sympy.primerange(2, pmax + 1) if _in_s_ref(ctx.d, p)]
    return (spec.d, spec.pmax) == (ctx.d, pmax) and spec.primes == tuple(primes) and all(
        e.d == ctx.d and _entry_ok(e) for e in spec.entries)


def _accept_xi_entry(args, e):
    return (e.d, e.p, e.l, e.x, e.y, e.norm_sign) == args and _entry_ok(e)


def _accept_spectrum_fields(args, spec):
    """A field index d, an int pmax (not a bool), and a tuple of XiEntry of this d at strictly
    increasing primes up to pmax, kept as given."""
    d, pmax, entries = args
    ps = [e.p for e in entries] if type(entries) is tuple and all(
        type(e) is XiEntry and e.d == d for e in entries) else None
    return (_squarefree_index(d) and type(pmax) is int and ps is not None and ps == sorted(set(ps))
            and all(p <= pmax for p in ps) and (spec.d, spec.pmax, spec.entries) == args)


def _accept_quad_elem(args, alpha):
    d, a, b = args
    return _squarefree_index(d) and _no_bools(a, b) and (alpha.d, alpha.a, alpha.b) == (d, F(a), F(b))


def _accept_exact_div(args, gamma):
    """beta * gamma = alpha with gamma in O_K, or None when alpha / beta is outside O_K."""
    alpha, beta = args
    d = alpha.d
    if gamma is None:
        return not _integral(d, _of(alpha) / _of(beta))
    return _of(beta) * _of(gamma) == _of(alpha) and _integral(d, _of(gamma))


def _accept_render(args, text):
    """The text parses back, through sympy, to the element."""
    alpha = args[0]
    text = re.sub(r"(\d?)√(\d+)", lambda m: f"{m[1]}*sqrt({m[2]})" if m[1] else f"sqrt({m[2]})", text)
    return _field(alpha.d).from_sympy(sympy.sympify(text)) == _of(alpha)


def _accept_point(args, pt):
    d, x, y, r = args
    return (_squarefree_index(d) and _ints(r) and _no_bools(x, y) and (pt.d, pt.x, pt.y, pt.r) == (d, F(x), F(y), r)
            and pt.x**2 - d * pt.y**2 == (-1) ** r)


def _spectrum_of(ctx, spec):
    """spec is a Spectrum of the context's d: no answer to a call with any other spec is accepted,
    even where the answer does not depend on it."""
    return isinstance(spec, Spectrum) and spec.d == ctx.d


def _decomposes(ctx, x, y, rep):
    """The representation evaluates, outside the solver, to the element it came from."""
    return rep.d == ctx.d and _value(rep) == _elt(ctx.d, x, y)


def _accept_decomposed(args, rep):
    ctx, spec, *point = args
    x, y = (point[0].x, point[0].y) if len(point) == 1 else point
    return _spectrum_of(ctx, spec) and (len(point) == 1 or _ints(x, y)) and _decomposes(ctx, x, y, rep)


def _scales_to(ctx, rep, pt):
    """The point is on its curve and the representation's value over it is a positive rational."""
    ratio = _field(ctx.d).to_sympy(_value(rep) / _elt(ctx.d, pt.x, pt.y))
    return pt.d == ctx.d and pt.x**2 - ctx.d * pt.y**2 == (-1) ** pt.r and ratio.is_Rational and ratio > 0


def _accept_generated_point(args, pt):
    """No answer to a representation with a prime past spec's pmax: decompose_rational
    refuses that prime over the same spec."""
    ctx, spec, rep = args
    return _spectrum_of(ctx, spec) and all(t.p <= spec.pmax for t in rep.terms) and _scales_to(ctx, rep, pt)


def _accept_representation(args, rep):
    """The fields as given: int d, sign, m and n, an int or Fraction scale, a tuple of XiPower
    terms, and no core or a CoreFactor of integers; every conj is a bool."""
    names = ("d", "sign", "m", "n", "terms", "core", "scale")
    core = rep.core
    return (_ints(rep.d, rep.sign, rep.m, rep.n) and type(rep.scale) in (int, F)
            and type(rep.terms) is tuple and all(type(t) is XiPower and type(t.conj) is bool for t in rep.terms)
            and (core is None or type(core) is CoreFactor and _ints(core.modulus, core.x, core.y)
                 and type(core.conj) is bool)
            and all(getattr(rep, name) == v for name, v in zip(names, args)))


def _accept_evaluation(args, alpha):
    (rep,) = args
    return _ints(*(t.exp for t in rep.terms)) and alpha.d == rep.d and _of(alpha) == _value(rep)


def _coords(v):
    """The rationals (a, b) with v = a + b*sqrt(d) for an element v of sympy's Q(sqrt(d))."""
    b, a = ([0, 0] + v.to_list())[-2:]
    return F(int(a.numerator), int(a.denominator)), F(int(b.numerator), int(b.denominator))


def _peels_back(rep):
    """The public decomposer of rep's reference value gives rep back: decompose_rational for a point
    of x^2 - d y^2 = +-1, over the spectrum up to the greatest prime of its denominator, and decompose
    for an integral value.  A ValueError from either is a no."""
    d, ctx = rep.d, make_context(rep.d)
    a, b = _coords(_value(rep))
    norm = a * a - d * b * b
    try:
        if abs(norm) == 1:
            spec = spectrum(ctx, max(sympy.primefactors(a.denominator), default=2))
            return decompose_rational(ctx, spec, RationalPellPoint(d, a, b, 0 if norm == 1 else 1)) == rep
        return a.denominator == b.denominator == 1 and decompose(ctx, int(a), int(b)) == rep
    except ValueError:
        return False


def _accept_validation(args, report):
    """ok needs what evaluate_representation's gate and evaluation need: m in {0, 1} and int spectrum
    primes with int exponents.  With those, ok holds exactly when the public decomposer of the
    reference value gives rep back."""
    (rep,) = args
    gate = rep.m in (0, 1) and all(_ints(t.p, t.exp) and sympy.isprime(t.p) and _in_s_ref(rep.d, t.p)
                                   for t in rep.terms)
    return report.ok == (not report.problems) and report.ok == (gate and _peels_back(rep))


def _decided(ctx, z, verdict):
    return verdict.exists == bool(_strict_pairs(ctx.d, z, 2000))


def _accept_verdict(args, verdict):
    ctx, spec, z = args
    return _spectrum_of(ctx, spec) and _decided(ctx, z, verdict)


def _generated(ctx, z, n_range, pairs):
    """Sorted, distinct, strictly primitive solutions; with unit exponents -2..2 at least,
    they hold every solution with y <= 50."""
    d = ctx.d
    return (_ints(*n_range) and pairs == sorted(set(pairs), key=lambda xy: (xy[1], xy[0]))
            and all(y > 0 and abs(x * x - d * y * y) == z and gcd(x, d * y) == 1 for x, y in pairs)
            and (not set(range(-2, 3)) <= set(n_range) or _strict_pairs(d, z, 50) <= set(pairs)))


def _accept_generated(args, pairs):
    ctx, spec, z, n_range = args
    return _spectrum_of(ctx, spec) and _generated(ctx, z, n_range, pairs)


def _accept_solved(args, ans):
    """n_range is an iterable, even on a no; the verdict as strict_exists's is accepted; on a yes
    the solutions as generate_strict's are, each with a representation that evaluates, outside
    the solver, to it; on a no, none."""
    ctx, z, n_range = args
    verdict, solutions = ans
    pairs = [(x, y) for x, y, _ in solutions]
    return (isinstance(n_range, Iterable) and _decided(ctx, z, verdict)
            and (_generated(ctx, z, n_range, pairs) if verdict.exists else not solutions)
            and all(_ints(x, y) and _decomposes(ctx, x, y, rep) for x, y, rep in solutions))


def _accept_decomposition(args, rep):
    ctx, x, y = args
    return _ints(x, y) and _decomposes(ctx, x, y, rep)


def _accept_family(args, family):
    """Distinct points of x^2 - d y^2 = sign, sorted by (denominator of x, |x|, y), each with a
    representation whose value is a positive rational multiple of it."""
    ctx, sign, max_terms = args[:3]
    keys = [(pt.x.denominator, abs(pt.x), pt.y) for pt, _ in family]
    return (_ints(sign, max_terms) and max_terms >= 0 and keys == sorted(keys)
            and len({(pt.x, pt.y) for pt, _ in family}) == len(family)
            and all(pt.x**2 - ctx.d * pt.y**2 == sign and _scales_to(ctx, rep, pt)
                    for pt, rep in family))


def _accept_alphas(args, alphas):
    """Distinct elements of norm -1 in the context's field: k powers of the unit when
    x^2 - d y^2 = -1 is integrally solvable, else k + 1."""
    ctx, k = args
    d = ctx.d
    return (len(alphas) == max(k if diop_DN(d, -1) else k + 1, 0)
            and len({(alpha.a, alpha.b) for alpha in alphas}) == len(alphas)
            and all(alpha.d == d and alpha.a**2 - d * alpha.b**2 == -1 for alpha in alphas))


def _accept_box(args, box):
    y_bound, denominator_bound = (*args, 1)[:2]
    return _ints(*args) and (box.y_bound, box.denominator_bound) == (y_bound, denominator_bound) and min(args) >= 1


def _accept_brute_solutions(args, hits):
    """Each hit solves x^2 - d y^2 = sign * z with the right strict flag, and a loop over x
    finds as many."""
    d, z, box = args
    count = sum(abs(x * x - d * y * y) == z for y in range(box.y_bound + 1)
                for x in range(isqrt(d * y * y + z) + 1))
    return _ints(d, z) and len(hits) == count and all(
        x >= 0 and 0 <= y <= box.y_bound and x * x - d * y * y == s * z and strict == (gcd(x, d * y) == 1)
        for x, y, s, strict in ((h.x, h.y, h.sign, h.strict) for h in hits))


def _accept_brute_xi(args, ans):
    d, p, l_max, box = args
    plus_only = any(isqrt(d * y * y - 1) ** 2 == d * y * y - 1 for y in range(1, box.y_bound + 1))
    return _ints(d, p, l_max) and ans == _least(d, p, l_max, box.y_bound, (1,) if plus_only else (1, -1))


def _accept_brute_rational(args, points):
    """Each point is on x^2 - d y^2 = (-1)^r within the box, and a loop over X finds as many."""
    d, r, box = args
    count = sum(X * X - d * Y * Y == (-1) ** r * Z * Z and gcd(X, Y, Z) == 1
                for Z in range(1, box.denominator_bound + 1) for Y in range(box.y_bound + 1)
                for X in range(isqrt(d * Y * Y + Z * Z) + 1))
    return _ints(d, r) and len(points) == count and all(x * x - d * y * y == (-1) ** r for x, y in points)


def _accept_tangent(args, ans):
    """None only where the check cannot decide; otherwise the star identity's verdict."""
    return _no_bools(*args) and (ans is None or ans is _star(*args))


CTX2, CTX3, CTX5, CTX34, CTX53 = make_context(2), make_context(3), make_context(5), make_context(34), make_context(53)
ETA2, ETA5, ETA34, ETA53 = CTX2.eta, CTX5.eta, CTX34.eta, CTX53.eta
SPEC2, SPEC5, SPEC34 = spectrum(CTX2, 97), spectrum(CTX5, 97), spectrum(CTX34, 97)
# spectra built by hand: no entries, and a valid but non-minimal xi_3 (59^2 - 34 * 10^2 = 3^4)
BARE34 = Spectrum(34, 97, ())
XI3_AT_4 = Spectrum(34, 97, tuple(XiEntry(34, 3, 4, 59, 10, 1) if e.p == 3 else e for e in SPEC34.entries))
PAIR60 = bisector.case1_generate(10**15 + 37, 10**15 + 91, 999999999989)[0]
SLOW_BISECT = pytest.mark.xfail(
    strict=True, raises=CensusTimeout,
    reason="ROADMAP 2(a), queued behind item 1: bisect factors a^2+1 and b^2+1 by trial division "
           "once their product is a square; a 60-digit rational pair has no small factors")
SLOW_XI = pytest.mark.xfail(
    strict=True, raises=CensusTimeout,
    reason="ROADMAP items 4 and 8: xi scans y level by level up to its bound; the level from reduced "
           "forms and a scan at that level only replace it")
SLOW_FACTOR = pytest.mark.xfail(
    strict=True, raises=CensusTimeout,
    reason="ROADMAP items 6 and 7: the peel factors the modulus 13833247 * 72289607799094457 by trial "
           "division; a factorization that scales, or a budget that refuses the call, mends it")
# a prime, inert for d = 34: is_prime decides it without factoring (Miller-Rabin)
P18 = 10**18 + 9
# the point (10^12 + 109, 1) of |x^2 - 2 y^2| = 13833247 * 72289607799094457, a 17-digit prime cofactor
BIG_X = 10**12 + 109
# xi_3 * eta^3000 on d = 94, where eta is sympy's Pell unit and xi_3 = 223 + 23*sqrt(94) has norm 3
_X, _Y = _pair_power(94, *map(F, _eps(94)), 3000)
XI3_ETA3000 = (int(223 * _X + 94 * 23 * _Y), int(23 * _X + 223 * _Y))

# name: (callable, acceptor, [(id, args) or (id, args, xfail mark)])
CENSUS = {
    "verify_star": (bisector.verify_star, _accept_verify_star, [
        ("valid", (F(3, 4), F(12, 5), F(9, 7))),
        ("wrong_c", (1, 7, 3)),
        ("|a|=|b|", (F(3, 4), F(-3, 4), 5)),
        ("zero", (0, 0, 0)),
        ("negative", (-1, -7, -2)),
        ("floats", (0.75, 2.5, -1.5)),
        ("strings", ("1", 2, 3)),
        ("bad_string", ("x", 2, 3)),
        ("none", (None, 1, 2)),
        ("inf", (INF, 1, 2)),
        ("bool", (True, 7, 2)),
    ]),
    "BisectorTriple": (bisector.BisectorTriple, _accept_triple, [
        ("valid", (1, 7, 2)),
        ("wrong_c", (1, 7, 3)),
        ("|a|=|b|", (5, 5, 1)),
        ("zero", (0, 0, 0)),
        ("negative", (-1, -7, -2)),
        ("floats", (1.0, 7.0, 2.0)),
        ("strings", ("3/4", "12/5", "9/7")),
        ("none", (None, 1, 2)),
        ("inf", (INF, 1, 2)),
        ("bool", (True, 7, 2)),
    ]),
    "classify_pair": (bisector.classify_pair, _accept_classification, [
        ("valid", (F(3, 4), F(12, 5))),
        ("case2", (F(1, 7), F(23, 7))),
        ("irrational", (1, 2)),
        ("|a|=|b|", (F(3, 4), F(-3, 4))),
        ("zero", (0, F(3, 4))),
        ("negative", (-1, -7)),
        ("floats", (0.75, 2.5)),
        ("strings", ("3/4", "12/5")),
        ("60digit", (PAIR60.a, PAIR60.b), SLOW_BISECT),
        ("float_tenths", (0.1, 0.2)),
        ("none", (None, 1)),
        ("inf", (INF, 2)),
        ("bool", (True, 7)),
    ]),
    "from_pell_points": (bisector.from_pell_points, _accept_pell_points, [
        ("valid", (1, 1, 7, 5, 2)),
        ("off_curve", (1, 1, 2, 1, 2)),
        ("|a|=|b|", (1, 1, -1, 1, 2)),
        ("zero", (0, 1, F(3, 4), F(5, 4), 1)),
        ("negative", (-1, 1, -7, 5, 2)),
        ("floats", (1.0, 1.0, 7.0, 5.0, 2)),
        ("strings", ("1", "1", "7", "5", 2)),
        ("none", (None, 1, 1, 1, 2)),
        ("inf", (INF, 1, 1, 1, 2)),
        ("string_d", (1, 1, 7, 5, "2")),
        ("float_d", (1, 1, 7, 5, 2.0)),
        ("bool", (True, True, 7, 5, 2)),
    ]),
    "bisect": (bisector.bisect, _accept_bisect, [
        ("valid", (F(3, 4), F(12, 5))),
        ("irrational", (1, 2)),
        ("|a|=|b|", (F(3, 4), F(-3, 4))),
        ("zero", (0, F(3, 4))),
        ("negative", (-1, -7)),
        ("floats", (0.75, 2.5)),
        ("strings", ("3/4", "12/5")),
        ("60digit", (PAIR60.a, PAIR60.b), SLOW_BISECT),
        ("float_tenths", (0.1, 0.2)),
        ("none", (None, 1)),
        ("list", (1, [2])),
        ("complex", (1j, 2)),
        ("inf", (INF, 2)),
        ("bool", (True, 7)),
    ]),
    "case1_generate": (bisector.case1_generate, _accept_pair, [
        ("valid", (2, 5, 1)),
        ("|a|=|b|", (-4, 1, -2)),
        ("l=m", (3, 3, 1)),
        ("zero", (0, 3, 1)),
        ("negative", (-2, 5, -1)),
        ("floats", (2.0, 3, 1)),
        ("strings", ("2", 3, 1)),
    ]),
    "case2_generate": (bisector.case2_generate, _accept_pair, [
        ("valid", (CTX53, ETA53**3, ETA53**5)),
        ("|a|=|b|", (CTX2, ETA2, ETA2.conj())),
        ("zero", (CTX2, QuadElem(2, 0, 0), ETA2)),
        ("norm+1", (CTX2, ETA2, ETA2**2)),
        ("negative", (CTX2, -ETA2, ETA2**3)),
        ("floats", (CTX2, QuadElem(2, 1.0, 1.0), QuadElem(2, 7.0, 5.0))),
        ("strings", (CTX2, "1+√2", ETA2)),
        ("other_field", (CTX34, ETA2, ETA2**3)),
        ("int_context", (2, ETA2, ETA2**3)),
        ("no_context", (None, ETA2, ETA2**3)),
        ("other_d_context", (CTX53, ETA2, ETA2**3)),
    ]),
    "case2_alphas": (bisector.case2_alphas, _accept_alphas, [
        ("valid", (CTX2, 3)),
        ("seed", (CTX34, 2)),
        ("no_seed", (CTX3, 2)),
        ("integral_181", (make_context(181), 2)),
        ("zero", (CTX34, 0)),
        ("negative", (CTX2, -1)),
        ("floats", (CTX34, 2.0)),
        ("strings", (CTX2, "2")),
        ("int_context", (34, 2)),
        ("no_context", (None, 2)),
    ]),
    "integral_generate": (bisector.integral_generate, _accept_one, [
        ("valid", (CTX2, 1, 2)),
        ("no_integral_pell", (CTX34, 1, 1)),
        ("zero", (CTX2, 0, 1)),
        ("negative", (CTX2, 1, -1)),
        ("floats", (CTX2, 2.0, 1)),
        ("strings", (CTX2, "1", 1)),
        ("int_context", (2, 1, 1)),
        ("no_context", (None, 1, 1)),
        ("other_d_context", (CTX53, 1, 2)),
    ]),
    "integral_generate2": (bisector.integral_generate2, _accept_one, [
        ("valid", (12,)),
        ("zero", (0,)),
        ("negative", (-1,)),
        ("floats", (2.0,)),
        ("strings", ("2",)),
    ]),
    "class_number": (class_number, _accept_class_number, [
        ("valid", (10,)),
        ("h3", (79,)),
        ("h4", (82,)),
        ("h1", (2,)),
        ("not_squarefree", (12,)),
        ("zero", (0,)),
        ("one", (1,)),
        ("negative", (-5,)),
        ("floats", (10.0,)),
        ("strings", ("10",)),
    ]),
    "continued_fraction_sqrt": (continued_fraction_sqrt, _accept_cf, [
        ("valid", (34,)),
        ("d=2", (2,)),
        ("large_d", (1000003,)),
        ("not_squarefree", (4,)),
        ("zero", (0,)),
        ("one", (1,)),
        ("negative", (-2,)),
        ("floats", (34.0,)),
        ("strings", ("34",)),
    ]),
    "make_context": (make_context, _accept_context, [
        ("valid", (34,)),
        ("half_unit", (5,)),
        ("d=13", (13,)),
        ("large_d", (1000003,)),
        ("not_squarefree", (4,)),
        ("zero", (0,)),
        ("one", (1,)),
        ("negative", (-7,)),
        ("floats", (34.0,)),
        ("strings", ("34",)),
    ]),
    "neg_pell_rational": (neg_pell_rational, _accept_neg_pell_rational, [
        ("valid", (34,)),
        ("integral", (2,)),
        ("no_point", (3,)),
        ("no_point_21", (21,)),
        ("not_squarefree", (4,)),
        ("zero", (0,)),
        ("negative", (-2,)),
        ("floats", (2.0,)),
    ]),
    "pell_sequence": (pell_sequence, _accept_pell_sequence, [
        ("valid", (2, 3)),
        ("half_unit_d", (5, 2)),
        ("d=34", (34, 1)),
        ("large_n", (2, 200)),
        ("bool_n", (2, True)),
        ("zero", (2, 0)),
        ("negative", (2, -1)),
        ("not_squarefree", (4, 1)),
        ("floats", (2, 2.0)),
        ("strings", ("2", 1)),
    ]),
    "splits": (splits, _accept_splits, [
        ("valid", (34, 3)),
        ("inert", (34, 7)),
        ("ramified", (34, 17)),
        ("p=2", (17, 2)),
        ("large_p", (34, 1000003)),
        ("prime_1e18", (34, P18)),
        ("composite", (34, 9)),
        ("one", (34, 1)),
        ("negative", (34, -3)),
        ("not_squarefree", (4, 3)),
        ("floats", (34, 3.0)),
    ]),
    "in_s": (in_s, _accept_in_s, [
        ("valid", (CTX34, 3)),
        ("inert", (CTX34, 7)),
        ("half_unit_2", (CTX5, 2)),
        ("ramified", (CTX34, 17)),
        ("large_p", (CTX34, 1000003)),
        ("prime_1e18", (CTX34, P18)),
        ("composite", (CTX34, 9)),
        ("one", (CTX34, 1)),
        ("negative", (CTX34, -3)),
        ("floats", (CTX34, 3.0)),
        ("int_context", (34, 3)),
    ]),
    "spectrum": (spectrum, _accept_spectrum, [
        ("valid", (CTX34, 20)),
        ("half_unit", (CTX5, 30)),
        ("d=2", (CTX2, 50)),
        ("one", (CTX34, 1)),
        ("zero", (CTX34, 0)),
        ("negative", (CTX34, -5)),
        ("floats", (CTX34, 20.0)),
        ("int_context", (34, 97)),
        ("large_d", (make_context(1000003), 40), SLOW_XI),
    ]),
    "xi": (xi, _accept_xi, [
        ("valid", (CTX34, 3)),
        ("p=5", (CTX34, 5)),
        ("inert", (CTX34, 7)),
        ("d=2", (CTX2, 7)),
        ("half_unit_2", (CTX5, 2)),
        ("composite", (CTX34, 9)),
        ("zero", (CTX34, 0)),
        ("negative", (CTX34, -3)),
        ("floats", (CTX34, 3.0)),
        ("int_context", (34, 3)),
        ("large_p", (CTX34, 1000003), SLOW_XI),
        ("prime_1e18", (CTX34, P18)),
    ]),
    "Spectrum": (Spectrum, _accept_spectrum_fields, [
        ("valid", (34, 97, SPEC34.entries)),
        ("no_entries", (34, 97, ())),
        ("not_squarefree", (4, 97, ())),
        ("float_d", (34.0, 97, ())),
        ("no_pmax", (34, None, ())),
        ("string_pmax", (34, "97", ())),
        ("bool_pmax", (34, True, ())),
        ("none_entries", (34, 97, None)),
        ("int_entries", (34, 97, (1, 2))),
        ("string_entries", (34, 97, "ab")),
        ("entries_of_d13", (34, 97, spectrum(make_context(13), 97).entries)),
        ("descending_entries", (34, 97, SPEC34.entries[::-1])),
        ("entries_past_pmax", (34, 5, SPEC34.entries)),
    ]),
    "XiEntry": (XiEntry, _accept_xi_entry, [
        ("valid", (34, 3, 2, 5, 1, -1)),
        ("wrong_sign", (34, 3, 2, 5, 1, 1)),
        ("not_strict", (2, 2, 1, 2, 1, 1)),
        ("zero", (34, 3, 2, 0, 1, -1)),
        ("negative", (34, 3, 2, -5, 1, -1)),
        ("not_squarefree", (4, 5, 1, 3, 1, 1)),
        ("floats", (34.0, 3, 2, 5, 1, -1)),
        ("none", (34, 3, 1, None, 1, 1)),
        ("float_level", (34, 3, 2.0, 5, 1, -1)),
        ("float_sign", (34, 3, 2, 5, 1, -1.0)),
        ("float_x", (34, 3, 2, 5.0, 1, -1)),
        ("zero_level", (34, 3, 0, 35, 6, 1)),
        ("bool_y", (34, 3, 2, 5, True, -1)),
    ]),
    "QuadElem": (QuadElem, _accept_quad_elem, [
        ("valid", (34, 35, 6)),
        ("halves", (5, F(1, 2), F(1, 2))),
        ("not_squarefree", (4, 1, 1)),
        ("zero", (0, 1, 1)),
        ("one", (1, 1, 1)),
        ("negative", (-3, 1, 1)),
        ("floats", (2, 0.5, 1.5)),
        ("strings", (2, "1/2", "3")),
        ("bad_string", (2, "x", 1)),
        ("none", (34, None, 1)),
        ("inf", (2, INF, 1)),
        ("bool", (2, True, False)),
    ]),
    "exact_div": (exact_div, _accept_exact_div, [
        ("valid", (ETA34**3 * QuadElem(34, 5, 1), QuadElem(34, 5, 1))),
        ("half", (QuadElem(5, 3, 1), QuadElem(5, 2, 0))),
        ("no_quotient", (QuadElem(2, 1, 1), QuadElem(2, 3, 0))),
        ("negative", (-ETA34, ETA34**2)),
        ("floats", (QuadElem(2, 3.0, 1.0), QuadElem(2, 1.0, 1.0))),
        ("other_field", (ETA34, ETA5)),
        ("int_divisor", (ETA34, 3)),
    ]),
    "render": (render, _accept_render, [
        ("valid", (ETA34,)),
        ("half", (ETA5,)),
        ("negative", (-ETA34,)),
        ("zero", (QuadElem(2, 0, 0),)),
        ("fraction", (QuadElem(2, F(-1, 3), F(2, 3)),)),
        ("ascii", (ETA34, True)),
        ("int", (3,)),
    ]),
    "RationalPellPoint": (RationalPellPoint, _accept_point, [
        ("valid", (2, F(1, 7), F(5, 7), 1)),
        ("integral", (34, 35, 6, 0)),
        ("off_curve", (2, F(1, 2), F(1, 2), 1)),
        ("r=2", (2, 1, 0, 2)),
        ("square_d", (4, 1, 0, 0)),
        ("d=1", (1, 0, 1, 1)),
        ("negative_d", (-1, 0, 1, 0)),
        ("float_d", (34.0, 35, 6, 0)),
        ("strings", (2, "1/7", "5/7", 1)),
        ("bool_r", (2, F(1, 7), F(5, 7), True)),
        ("float_r", (2, F(1, 7), F(5, 7), 1.0)),
        ("none", (2, None, 1, 0)),
        ("inf", (2, INF, 1, 0)),
        ("bool", (2, True, True, 1)),
    ]),
    "decompose_rational": (decompose_rational, _accept_decomposed, [
        ("valid", (CTX2, SPEC2, RationalPellPoint(2, F(1, 7), F(5, 7), 1))),
        ("d=34", (CTX34, SPEC34, RationalPellPoint(34, F(5, 3), F(1, 3), 1))),
        ("unit", (CTX2, SPEC2, RationalPellPoint(2, 3, 2, 0))),
        ("other_d", (CTX2, SPEC2, RationalPellPoint(34, F(5, 3), F(1, 3), 1))),
        ("past_pmax", (CTX34, spectrum(CTX34, 2), RationalPellPoint(34, F(5, 3), F(1, 3), 1))),
        ("string_point", (CTX34, SPEC34, "x")),
        ("no_context", (None, SPEC34, RationalPellPoint(34, F(5, 3), F(1, 3), 1))),
        ("unit_no_spec", (CTX34, None, RationalPellPoint(34, 35, 6, 0))),
        ("unit_other_d_spec", (CTX34, SPEC5, RationalPellPoint(34, 35, 6, 0))),
    ]),
    "generate_rational": (generate_rational, _accept_generated_point, [
        ("valid", (CTX2, SPEC2, Representation(d=2, n=-1, terms=(XiPower(7, 2),)))),
        ("d=34", (CTX34, SPEC34, Representation(d=34, terms=(XiPower(3, 1),)))),
        ("unit", (CTX2, SPEC2, Representation(d=2, n=3))),
        ("odd_parity", (CTX34, SPEC34, Representation(d=34, terms=(XiPower(47, 1),)))),
        ("other_d", (CTX2, SPEC2, Representation(d=34, n=1))),
        ("inert_prime", (CTX34, SPEC34, Representation(d=34, terms=(XiPower(7, 2),)))),
        ("string_rep", (CTX34, SPEC34, "x")),
        ("no_context", (None, SPEC34, Representation(d=34, terms=(XiPower(3, 1),)))),
        ("no_spec", (CTX34, None, Representation(d=34, terms=(XiPower(3, 1),)))),
        ("past_pmax", (CTX34, spectrum(CTX34, 5), Representation(d=34, terms=(XiPower(47, 2),)))),
        ("huge_past_pmax", (CTX34, SPEC34, Representation(d=34, terms=(XiPower(10**18 + 9, 1),)))),
        ("negative_m", (CTX34, SPEC34, Representation(d=34, m=-1))),
        ("zero_value", (CTX34, SPEC34, Representation(d=34, sign=0))),
    ]),
    "rational_family": (rational_family, _accept_family, [
        ("valid", (CTX34, -1, 2, range(-1, 2), 13)),
        ("plus", (CTX34, 1, 1, range(-1, 2), 31)),
        ("d=2", (CTX2, -1, 1, range(-1, 2), 20)),
        ("no_point", (CTX3, -1, 2, range(-1, 2), 20)),
        ("sign_zero", (CTX34, 0, 2, range(3), 31)),
        ("float_sign", (CTX34, -1.0, 2, range(3), 31)),
        ("float_terms", (CTX34, -1, 2.0, range(3), 31)),
        ("float_n", (CTX34, -1, 1, [0.5], 31)),
        ("int_range", (CTX34, -1, 2, 3, 31)),
        ("small_pmax", (CTX34, -1, 2, range(3), 1)),
        ("bool_sign", (CTX34, True, 1, range(-1, 2), 31)),
        ("negative_terms", (CTX34, 1, -5, range(-1, 2), 31)),
        ("no_context", (None, -1, 2, range(3), 31)),
        ("zero_terms_large_pmax", (CTX34, -1, 0, range(-2, 3), 3000)),
    ]),
    "Representation": (Representation, _accept_representation, [
        ("valid", (34, 1, 0, 2)),
        ("full", (34, -1, 0, -1, (XiPower(3, 1),), None, F(1, 3))),
        ("zero", (34, 0, 0, 0)),
        ("floats", (34, 1.0)),
        ("strings", (34, "1")),
        ("float_scale", (34, 1, 0, 0, (), None, 0.5)),
        ("bool_scale", (34, 1, 0, 0, (), None, True)),
        ("int_terms", (34, 1, 0, 0, (3,))),
        ("list_terms", (34, 1, 0, 0, [XiPower(3, 1)])),
        ("float_core", (34, 1, 0, 0, (), CoreFactor(9, 5.0, 1))),
        ("bool_core", (34, 1, 0, 0, (), CoreFactor(9, 5, True))),
        ("tuple_core", (34, 1, 0, 0, (), (9, 5, 1))),
        ("core_in_terms", (34, 1, 0, 0, (XiPower(3, 1), CoreFactor(15, 7, 1)))),
        ("str_conj", (34, 1, 0, 0, (XiPower(3, 1, conj="no"),))),
        ("list_conj", (34, 1, 0, 0, (), CoreFactor(9, 5, 1, conj=[0]))),
        ("string_d", ("34",)),
    ]),
    "evaluate_representation": (evaluate_representation, _accept_evaluation, [
        ("valid", (Representation(d=34, terms=(XiPower(3, 1),)),)),
        ("core", (Representation(d=34, sign=-1, n=-2, terms=(XiPower(3, 1, True),), core=CoreFactor(15, 7, 1)),)),
        ("scaled", (Representation(d=2, n=1, scale=F(1, 7)),)),
        ("half_xi_2", (Representation(d=17, m=1, terms=(XiPower(2, 1),)),)),
        ("inert_prime", (Representation(d=34, terms=(XiPower(7, 1),)),)),
        ("prime_1e18", (Representation(d=34, terms=(XiPower(P18, 1),)),)),
        ("not_squarefree", (Representation(d=4),)),
        ("string", ("x",)),
        ("bool_exp", (Representation(d=34, terms=(XiPower(3, True),)),)),
        ("negative_m", (Representation(d=34, m=-1),)),
    ]),
    "validate_representation": (validate_representation, _accept_validation, [
        ("valid", (Representation(d=34, terms=(XiPower(3, 1),)),)),
        ("bad_sign", (Representation(d=34, sign=2),)),
        ("bad_core", (Representation(d=34, core=CoreFactor(15, 7, 2)),)),
        ("negative_exp", (Representation(d=34, terms=(XiPower(3, -1),)),)),
        ("inert_prime", (Representation(d=34, terms=(XiPower(7, 1),)),)),
        ("prime_1e18", (Representation(d=34, terms=(XiPower(P18, 1),)),)),
        ("composite_p", (Representation(d=34, terms=(XiPower(9, 1),)),)),
        ("not_squarefree", (Representation(d=4),)),
        ("string", ("x",)),
        ("str_exp", (Representation(d=34, terms=(XiPower(3, "a"),)),)),
        ("none_exp", (Representation(d=34, terms=(XiPower(3, None),)),)),
        ("str_p", (Representation(d=34, terms=(XiPower("3", 1),)),)),
        ("core_covered_by_xi", (Representation(d=34, core=CoreFactor(9, 5, 1)),)),  # 5 + sqrt(34) is xi_3
        ("xi2_scaled", (Representation(d=5, n=1, terms=(XiPower(2, 1),), scale=2),)),  # 4 * eta^3
        ("half_unit", (Representation(d=5, n=1),)),  # eta = (1 + sqrt(5)) / 2
        ("large_core", (Representation(d=2, core=CoreFactor(BIG_X**2 - 2, BIG_X, 1)),), SLOW_FACTOR),
    ]),
    "strict_exists": (strict_exists, _accept_verdict, [
        ("valid", (CTX34, SPEC34, 9)),
        ("none", (CTX34, SPEC34, 7)),
        ("two_primes", (CTX34, SPEC34, 15)),
        ("core", (CTX34, SPEC34, 33)),
        ("one", (CTX34, SPEC34, 1)),
        ("zero", (CTX34, SPEC34, 0)),
        ("negative", (CTX34, SPEC34, -9)),
        ("floats", (CTX34, SPEC34, 9.0)),
        ("other_d_spectrum", (CTX2, SPEC34, 9)),
        ("past_pmax", (CTX34, spectrum(CTX34, 5), 49)),
        ("hand_built_spectrum", (CTX34, BARE34, 9)),
        ("no_spectrum", (CTX34, None, 9)),
        ("no_context", (None, SPEC34, 9)),
    ]),
    "generate_strict": (generate_strict, _accept_generated, [
        ("valid", (CTX34, SPEC34, 9, range(-2, 3))),
        ("two_primes", (CTX34, SPEC34, 15, range(-2, 3))),
        ("none", (CTX34, SPEC34, 7, range(3))),
        ("one", (CTX34, SPEC34, 1, range(3))),
        ("zero", (CTX34, SPEC34, 0, range(3))),
        ("floats", (CTX34, SPEC34, 9.0, range(3))),
        ("int_range", (CTX34, SPEC34, 9, 3)),
        ("no_context", (None, SPEC34, 9, range(3))),
        ("hand_built_spectrum", (CTX34, XI3_AT_4, 81, range(-2, 3))),
    ]),
    "decompose_strict": (decompose_strict, _accept_decomposed, [
        ("valid", (CTX34, SPEC34, 5, 1)),
        ("negative_y", (CTX34, SPEC34, 29, -5)),
        ("core", (CTX34, SPEC34, 1, 1)),
        ("half_unit_d", (CTX5, SPEC5, 3, 1)),
        ("not_strict", (CTX34, SPEC34, 34, 6)),
        ("unit", (CTX34, SPEC34, 35, 6)),
        ("zero", (CTX34, SPEC34, 0, 0)),
        ("floats", (CTX34, SPEC34, 5.0, 1)),
        ("strings", (CTX34, SPEC34, "5", 1)),
        ("no_context", (None, SPEC34, 5, 1)),
        ("hand_built_spectrum", (CTX34, BARE34, 5, 1)),
    ]),
    "decompose_square": (decompose_square, _accept_decomposed, [
        ("valid", (CTX34, SPEC34, 15, 3)),
        ("unit_scale", (CTX2, SPEC2, 21, 14)),
        ("strict", (CTX2, SPEC2, 9, 4)),
        ("not_square", (CTX34, SPEC34, 5, 1)),
        ("zero", (CTX34, SPEC34, 0, 0)),
        ("floats", (CTX34, SPEC34, 15.0, 3)),
        ("no_context", (None, SPEC34, 15, 3)),
        ("unit_no_spec", (CTX34, None, 70, 12)),
    ]),
    "solve": (solve, _accept_solved, [
        ("valid", (CTX34, 9, range(-2, 3))),
        ("two_primes", (CTX34, 15, range(-2, 3))),
        ("core", (CTX34, 33, range(-1, 2))),
        ("none", (CTX34, 7, range(3))),
        ("large_prime", (CTX34, 100003, range(3))),
        ("inert_times_large_prime", (CTX34, 7 * 1000003, range(-1, 2))),
        ("two_times_large_prime", (CTX34, 2 * 1000003, range(-1, 2))),
        ("ramified_times_large_prime", (CTX34, 17 * 1000003, range(-1, 2))),
        ("one", (CTX34, 1, range(3))),
        ("zero", (CTX34, 0, range(3))),
        ("floats", (CTX34, 9.0, range(3))),
        ("int_range", (CTX34, 9, 3)),
        ("no_int_range", (CTX34, 7, 5)),
        ("bool_n", (CTX34, 9, [True])),
        ("int_context", (34, 9, range(3))),
        ("no_context", (None, 9, range(3))),
    ]),
    "decompose": (decompose, _accept_decomposition, [
        ("strict", (CTX34, 5, 1)),
        ("square", (CTX34, 405, 75)),
        ("negative_y", (CTX34, 29, -5)),
        ("half_unit_d", (CTX5, 3, 1)),
        ("not_square", (CTX34, 34, 6)),
        ("unit", (CTX34, 35, 6)),
        ("zero", (CTX34, 0, 0)),
        ("floats", (CTX34, 5.0, 1)),
        ("strings", (CTX34, "5", 1)),
        ("bool_y", (CTX34, 5, True)),
        ("int_context", (34, 5, 1)),
        ("no_context", (None, 5, 1)),
        ("large_prime_factor", (CTX2, BIG_X, 1), SLOW_FACTOR),
        ("unit_power_3000", (make_context(94), *XI3_ETA3000)),
    ]),
    "SearchBox": (SearchBox, _accept_box, [
        ("valid", (10,)),
        ("with_denominator", (10, 3)),
        ("zero", (0,)),
        ("negative", (-1,)),
        ("floats", (2.0,)),
        ("strings", ("3",)),
        ("bool", (True,)),
    ]),
    "brute_solutions": (oracle.brute_solutions, _accept_brute_solutions, [
        ("valid", (34, 9, SearchBox(50))),
        ("d=2", (2, 7, SearchBox(30))),
        ("none", (34, 7, SearchBox(30))),
        ("zero", (34, 0, SearchBox(5))),
        ("negative", (34, -9, SearchBox(5))),
        ("floats", (34.0, 9, SearchBox(5))),
        ("no_box", (34, 9, None)),
        ("bool_z", (34, True, SearchBox(5))),
    ]),
    "brute_xi": (oracle.brute_xi, _accept_brute_xi, [
        ("valid", (34, 3, 4, SearchBox(100))),
        ("inert", (34, 7, 3, SearchBox(50))),
        ("d=2", (2, 7, 2, SearchBox(30))),
        ("no_level", (34, 3, 0, SearchBox(10))),
        ("floats", (34, 3.0, 2, SearchBox(10))),
        ("strings", ("34", 3, 2, SearchBox(10))),
        ("no_box", (34, 3, 2, None)),
        ("bool_level", (34, 3, True, SearchBox(100))),
    ]),
    "brute_rational_pell": (oracle.brute_rational_pell, _accept_brute_rational, [
        ("valid", (2, 1, SearchBox(10, 7))),
        ("r=0", (34, 0, SearchBox(10, 5))),
        ("d=34", (34, 1, SearchBox(5, 5))),
        ("r=2", (2, 2, SearchBox(5))),
        ("floats", (2.0, 1, SearchBox(5))),
        ("strings", (2, "1", SearchBox(5))),
        ("bool_r", (2, True, SearchBox(10, 7))),
    ]),
    "tangent_bisector_check": (tangent_bisector_check, _accept_tangent, [
        ("valid", (F(3, 4), F(12, 5), F(9, 7))),
        ("wrong_c", (1, 7, 3)),
        ("c-", (1, 7, F(-1, 2))),
        ("zero_c", (1, 7, 0)),
        ("negative", (-1, -7, -2)),
        ("floats", (0.75, 2.5, 1.5)),
        ("strings", ("3/4", "12/5", "9/7")),
        ("none_c", (1, 2, None)),
        ("none", (None, 1, 2)),
        ("inf", (INF, 1, 2)),
        ("bool", (True, 7, 2)),
    ]),
}


# the callables that read a slope or coordinate through arith.rational
RATIONAL_INPUTS = (QuadElem, bisector.BisectorTriple, bisector.verify_star, bisector.classify_pair, bisector.bisect,
                   bisector.from_pell_points, tangent_bisector_check, RationalPellPoint)


def _rows():
    for name, (fn, accept, rows) in CENSUS.items():
        for row_id, args, *marks in rows:
            yield pytest.param(fn, accept, args, id=f"{name}-{row_id}", marks=marks)


@pytest.mark.parametrize("fn, accept, args", _rows())
def test_census(fn, accept, args):
    try:
        answer = _capped(fn, args)
    except ValueError:
        return
    assert accept(args, answer), answer


def test_every_public_bisector_callable_has_four_rows():
    public = {name for name, obj in vars(bisector).items()
              if callable(obj) and not name.startswith("_") and getattr(obj, "__module__", "") == bisector.__name__
              and not isinstance(obj, type) or name == "BisectorTriple"}
    assert public == {name for name, (fn, _, _) in CENSUS.items() if fn.__module__ == bisector.__name__}
    assert all(len(rows) >= 4 for _, _, rows in CENSUS.values())


def test_every_public_callable_has_four_rows():
    """Every function in __all__, and every class there whose constructor checks its fields."""
    public = {name for name in pellbisect.__all__
              if callable(obj := getattr(pellbisect, name))
              and (not isinstance(obj, type) or hasattr(obj, "__post_init__"))}
    assert public == set(CENSUS)
    assert all(len(rows) >= 4 for _, _, rows in CENSUS.values())


def test_every_rational_input_has_none_inf_and_bool_rows():
    for fn in RATIONAL_INPUTS:
        (rows,) = [rows for f, _, rows in CENSUS.values() if f is fn]
        assert {"none", "inf", "bool"} <= {row[0] for row in rows}, fn.__name__
