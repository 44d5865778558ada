"""A census of hangs and crashes across the public API, for now the bisector.

Each row calls one public callable under a 0.5 s alarm. It passes if the call
returns an answer that an independent check accepts (the star identity on
Fractions, and tangent_bisector_check for a non-trivial pair), or if it raises
a ValueError subclass. A timeout, a TypeError or AttributeError from inside
the package, or an InvariantError fails. A row that fails today is a strict
xfail that names the ROADMAP item that fixes it.
"""

import signal
from fractions import Fraction as F

import pytest

from pellbisect import bisector
from pellbisect.arith import is_squarefree
from pellbisect.oracle import tangent_bisector_check
from pellbisect.pellcore import make_context
from pellbisect.quadfield import QuadElem

CAP_S = 0.5


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


def _star(a, b, c):
    a, b, c = F(a), F(b), F(c)
    return (a - c) ** 2 * (b * b + 1) == (b - c) ** 2 * (a * a + 1)


def _bisects(a, b, c):
    """c is a bisector slope of the non-trivial pair (a, b)."""
    return c is not None and abs(a) != abs(b) and _star(a, b, c) and tangent_bisector_check(a, b, c) is True


def _triple_ok(t):
    return isinstance(t, bisector.BisectorTriple) and _bisects(t.a, t.b, t.c)


def _accept_verify_star(args, ans):
    return ans is _star(*args)


def _accept_triple(args, t):
    """A BisectorTriple may be trivial (|a| = |b|), where any c satisfies the star."""
    return _star(t.a, t.b, t.c) and (t.trivial or tangent_bisector_check(t.a, t.b, t.c) is True)


def _accept_classification(args, cls):
    a, b = (F(v) for v in args)
    return ((cls.d == 1 or is_squarefree(cls.d)) and cls.a2 > 0 and cls.b2 > 0
            and a * a + 1 == cls.d * cls.a2**2 and b * b + 1 == cls.d * cls.b2**2)


def _accept_pell_points(args, ans):
    a1, _, b1, _, _ = (F(v) for v in args)
    slopes = [c for c in ans if c is not None]
    return slopes and all(_star(a1, b1, c) and tangent_bisector_check(a1, b1, c) is not False for c in slopes)


def _accept_bisect(args, ans):
    a, b = (F(v) for v in args)
    c_plus, c_minus = ans
    return _bisects(a, b, c_plus) and _bisects(a, b, c_minus) and c_plus * c_minus == -1


def _accept_pair(args, ts):
    t1, t2 = ts
    return _triple_ok(t1) and _triple_ok(t2) and (t1.a, t1.b) == (t2.a, t2.b) and t1.c * t2.c == -1


def _accept_one(args, t):
    return _triple_ok(t)


CTX2, CTX34, CTX53 = make_context(2), make_context(34), make_context(53)
ETA2, ETA53 = CTX2.eta, CTX53.eta
PAIR60 = bisector.case1_generate(10**15 + 37, 10**15 + 91, 999999999989)[0]
SLOW_BISECT = pytest.mark.xfail(
    strict=True, raises=CensusTimeout,
    reason="ROADMAP 2(a), queued behind item 1: bisect factors a^2+1 and b^2+1 by trial division; "
           "a float slope such as 0.1 has denominator 2^55")

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
    ]),
    "BisectorTriple": (bisector.BisectorTriple, _accept_triple, [
        ("valid", (1, 7, 2)),
        ("wrong_c", (1, 7, 3)),
        ("|a|=|b|", (5, 5, 1)),
        ("zero", (0, 0, 0)),
        ("negative", (-1, -7, -2)),
        ("floats", (1.0, 7.0, 2.0)),
        ("strings", ("3/4", "12/5", "9/7")),
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
        ("float_tenths", (0.1, 0.2), SLOW_BISECT),
    ]),
    "from_pell_points": (bisector.from_pell_points, _accept_pell_points, [
        ("valid", (1, 1, 7, 5, 2)),
        ("off_curve", (1, 1, 2, 1, 2)),
        ("|a|=|b|", (1, 1, -1, 1, 2)),
        ("zero", (0, 1, F(3, 4), F(5, 4), 1)),
        ("negative", (-1, 1, -7, 5, 2)),
        ("floats", (1.0, 1.0, 7.0, 5.0, 2)),
        ("strings", ("1", "1", "7", "5", 2)),
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
        ("float_tenths", (0.1, 0.2), SLOW_BISECT),
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
}


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
    assert public == set(CENSUS)
    assert all(len(rows) >= 4 for _, _, rows in CENSUS.values())
