"""An integral float (2.0, 1.0, 0.0) or a bool is refused with a ValueError where
each integer enters, cold and warm, also under python -O; the integer call answers."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from pellbisect import bisector, oracle, pellcore, rationalpell, solver
from pellbisect.pellcore import make_context, pell_sequence
from pellbisect.quadfield import QuadElem


def _ctx34():
    return make_context(34)


def _spec34():
    return pellcore.spectrum(_ctx34(), 97)


def _rep34(**fields):
    return solver.evaluate_representation(solver.Representation(34, **fields))


def _box():
    return oracle.SearchBox(10)


# id: (integer call, the same call with an integral float, error, message)
FLOAT_ROWS = {
    "XiPower.exp": (lambda: _rep34(terms=(solver.XiPower(3, 2),)), lambda: _rep34(terms=(solver.XiPower(3, 2.0),)),
                    ValueError, "^exponent must be an integer, got 2.0$"),
    "XiPower.exp=1.0": (lambda: _rep34(terms=(solver.XiPower(3, 1),)), lambda: _rep34(terms=(solver.XiPower(3, 1.0),)),
                        ValueError, "^exponent must be an integer, got 1.0$"),
    "Representation.n": (lambda: _rep34(n=2), lambda: _rep34(n=2.0), ValueError, "^n must be an integer, got 2.0$"),
    "Representation.n=1.0": (lambda: _rep34(n=1), lambda: _rep34(n=1.0), ValueError, "^n must be an integer, got 1.0$"),
    "Representation.scale": (lambda: _rep34(scale=F(1, 2)), lambda: _rep34(scale=0.5),
                             ValueError, "^scale must be an int or a Fraction, got 0.5$"),
    "generate_strict": (lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [2]),
                        lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [2.0]),
                        ValueError, "^exponent must be an integer, got 2.0$"),
    "generate_strict=0.0": (lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [0]),
                            lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [0.0]),
                            ValueError, "^exponent must be an integer, got 0.0$"),
    "decompose_strict": (lambda: solver.decompose_strict(_ctx34(), _spec34(), 5, 1),
                         lambda: solver.decompose_strict(_ctx34(), _spec34(), 5.0, 1),
                         ValueError, "^x must be an integer, got 5.0$"),
    "pell_sequence": (lambda: pell_sequence(34, 2), lambda: pell_sequence(34, 2.0),
                      ValueError, "^n must be a positive integer$"),
    "pell_sequence=1.0": (lambda: pell_sequence(34, 1), lambda: pell_sequence(34, 1.0),
                          ValueError, "^n must be a positive integer$"),
    "brute_solutions": (lambda: oracle.brute_solutions(34, 9, _box()), lambda: oracle.brute_solutions(34, 9.0, _box()),
                        ValueError, "^d and z must be integers$"),
    "brute_xi": (lambda: oracle.brute_xi(34, 3, 2, _box()), lambda: oracle.brute_xi(34, 3, 2.0, _box()),
                 ValueError, "^d, p and l_max must be integers$"),
    "SearchBox": (lambda: oracle.SearchBox(1), lambda: oracle.SearchBox(1.5), ValueError, "^bounds must be integers$"),
    "case1_generate": (lambda: bisector.case1_generate(2, 3, 1), lambda: bisector.case1_generate(2.0, 3, 1),
                       ValueError, "^l must be an integer, got 2.0$"),
    "integral_generate": (lambda: bisector.integral_generate(make_context(2), 2, 1),
                          lambda: bisector.integral_generate(make_context(2), 2.0, 1),
                          ValueError, "^m must be an integer, got 2.0$"),
    "integral_generate2": (lambda: bisector.integral_generate2(2), lambda: bisector.integral_generate2(2.0),
                           ValueError, "^n must be an integer, got 2.0$"),
}

# id: (integer call, the same call with True for the integer, error, message); each message
# is the one the call gives for any other non-integer
BOOL_ROWS = {
    "XiPower.exp": (lambda: _rep34(terms=(solver.XiPower(3, 1),)), lambda: _rep34(terms=(solver.XiPower(3, True),)),
                    ValueError, "^exponent must be an integer, got True$"),
    "generate_strict": (lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [1]),
                        lambda: solver.generate_strict(_ctx34(), _spec34(), 9, [True]),
                        ValueError, "^exponent must be an integer, got True$"),
    "QuadElem.__pow__": (lambda: QuadElem(2, 1, 1) ** 1, lambda: QuadElem(2, 1, 1) ** True,
                         ValueError, "^exponent must be an integer, got True$"),
    "Representation.n": (lambda: _rep34(n=1), lambda: _rep34(n=True), ValueError, "^n must be an integer, got True$"),
    "Representation.scale": (lambda: _rep34(scale=1), lambda: _rep34(scale=True),
                             ValueError, "^scale must be an int or a Fraction, got True$"),
    "XiEntry.y": (lambda: pellcore.XiEntry(34, 3, 2, 5, 1, -1), lambda: pellcore.XiEntry(34, 3, 2, 5, True, -1),
                  ValueError, "^y must be an integer, got True$"),
    "Spectrum.pmax": (lambda: pellcore.Spectrum(34, 1, ()), lambda: pellcore.Spectrum(34, True, ()),
                      ValueError, "^pmax must be an integer, got True$"),
    "decompose": (lambda: solver.decompose(_ctx34(), 5, 1), lambda: solver.decompose(_ctx34(), 5, True),
                  ValueError, "^y must be an integer, got True$"),
    "rational_family": (lambda: rationalpell.rational_family(_ctx34(), 1, 1, range(1), 13),
                        lambda: rationalpell.rational_family(_ctx34(), True, 1, range(1), 13),
                        ValueError, "^sign must be an integer, got True$"),
    "pell_sequence": (lambda: pell_sequence(34, 1), lambda: pell_sequence(34, True),
                      ValueError, "^n must be a positive integer$"),
    "RationalPellPoint.r": (lambda: rationalpell.RationalPellPoint(2, F(1, 7), F(5, 7), 1),
                            lambda: rationalpell.RationalPellPoint(2, F(1, 7), F(5, 7), True),
                            ValueError, "^r must be 0 or 1$"),
    "SearchBox": (lambda: oracle.SearchBox(1), lambda: oracle.SearchBox(True), ValueError, "^bounds must be integers$"),
    "brute_solutions": (lambda: oracle.brute_solutions(34, 1, _box()), lambda: oracle.brute_solutions(34, True, _box()),
                        ValueError, "^d and z must be integers$"),
    "brute_xi": (lambda: oracle.brute_xi(34, 3, 1, _box()), lambda: oracle.brute_xi(34, 3, True, _box()),
                 ValueError, "^d, p and l_max must be integers$"),
    "brute_rational_pell": (lambda: oracle.brute_rational_pell(2, 1, _box()),
                            lambda: oracle.brute_rational_pell(2, True, _box()),
                            ValueError, "^d and r must be integers$"),
}


def _clear_program_caches():
    """Empty every functools cache in the package, as the benchmark does
    before each cold round."""
    for name, mod in list(sys.modules.items()):
        if name == "pellbisect" or name.startswith("pellbisect."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@pytest.mark.parametrize("row_id", FLOAT_ROWS)
def test_an_integral_float_raises_cold_and_warm(row_id):
    _raises_cold_and_warm(*FLOAT_ROWS[row_id])


@pytest.mark.parametrize("row_id", BOOL_ROWS)
def test_a_bool_raises_cold_and_warm(row_id):
    _raises_cold_and_warm(*BOOL_ROWS[row_id])


def _raises_cold_and_warm(integer_call, refused_call, error, message):
    _clear_program_caches()
    with pytest.raises(error, match=message):
        refused_call()
    integer_call()
    with pytest.raises(error, match=message):
        refused_call()


def test_integral_floats_raise_under_optimize():
    """The same refusals, bools included, under python -O: none of them is an assert."""
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from test_integral_floats import BOOL_ROWS, FLOAT_ROWS\n"
        "print(__debug__)\n"
        "for row_id, (_, refused_call, error, _) in [*FLOAT_ROWS.items(), *BOOL_ROWS.items()]:\n"
        "    try:\n"
        "        refused_call()\n"
        "        print(row_id, 'answered')\n"
        "    except error:\n"
        "        pass\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code, str(Path(__file__).parent)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0 and r.stdout.split() == ["False"], r.stdout + r.stderr
