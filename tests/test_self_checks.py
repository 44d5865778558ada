"""Every self-check of the package fires: each raise of InvariantError or XiEntryError in src/
has a row here that breaks the kernel the check guards and requires that raise, in-process
and under python -O, where asserts are gone."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHECKED = {"InvariantError", "XiEntryError"}

# One row per self-check: (module, the function that raises, the kernel it guards, that kernel
# broken, the caches the call reads, the call, the error, its message).  fire runs a row with the
# caches cleared before and after, and says what was raised, where, and whether the message matches.
# A row whose broken kernel feeds the solver's memo of powers clears that memo too, so a broken
# product is never served warm to a later test.
SELF_CHECKS = r"""
import re
from fractions import Fraction

from pellbisect import bisector, pellcore, rationalpell, solver
from pellbisect.pellcore import CFExpansion, XiEntryError, make_context, spectrum
from pellbisect.quadfield import InvariantError, _mul_scaled

ctx2, ctx34 = make_context(2), make_context(34)
spec2, spec34 = spectrum(ctx2, 97), spectrum(ctx34, 97)
real_mul, real_eval, real_point_eval = solver._mul_scaled, solver._evaluate_scaled, rationalpell._evaluate_scaled
real_kernel, real_slopes = bisector._pair_kernel, bisector._slopes
real_period, real_hits, real_h = pellcore._period, pellcore.strict_hits, pellcore._narrow_class_number


def edit_period(edit):
    return lambda d, p, q: (lambda cf: CFExpansion(cf.a0, edit(cf.period)))(real_period(d, p, q))


def edit_kernel(edit):
    return lambda a, b: edit(*real_kernel(a, b))


def no_hits(d, n, *rest):
    # a scan that finds nothing up to xi_3's level bound 3h + 2 = 8 on d = 34; past it, a lost bound fails
    if n > 3**8:
        raise RuntimeError("scanned past the level bound")
    return iter(())


cases = [
    # x + d*y keeps gcd(x, d*y) and m, and moves the modulus
    (solver, "_generate", "_mul_scaled", lambda d, *a: (lambda x, y, m: (x + d * y, y, m))(*real_mul(d, *a)), (),
     lambda: solver.generate_strict(ctx34, spec34, 9, range(-1, 2)), InvariantError, r"does not have modulus 9$"),
    (solver, "_decompose_scaled", "_verdict", lambda d, z, pmax: solver.ExistenceVerdict(exists=False), (),
     lambda: solver.decompose_strict(ctx34, spec34, 5, 1), InvariantError,
     r"^\(5, 1\) is a solution, yet the verdict says none"),
    (solver, "_decompose_scaled", "exact_div", lambda alpha, beta: None, (),
     lambda: solver.decompose_strict(ctx34, spec34, 5, 1), InvariantError,
     r"^no choice of XiPower\(p=3, .* divides \(5, 1\)$"),
    (solver, "_decompose_scaled", "_evaluate_scaled", lambda rep: (lambda x, y, m: (x + 1, y, m))(*real_eval(rep)), (),
     lambda: solver.decompose_strict(ctx34, spec34, 5, 1), InvariantError, r"does not evaluate to \(5, 1\)$"),
    # times eta = 1 + sqrt(2), of norm -1: the modulus stays, the norm's sign flips
    (rationalpell, "_point", "_evaluate_scaled", lambda rep: _mul_scaled(2, *real_point_eval(rep), 1, 1, 1), (),
     lambda: rationalpell.generate_rational(ctx2, spec2, solver.Representation(2, n=-1, terms=(solver.XiPower(7, 2),))),
     InvariantError, r"^norm sign 0 disagrees with the parity"),
    # 1 and 7 lie on x^2 - 2y^2 = -1 with y = 1 and 5; a kernel of 1 puts 1^2 + 1 = 2 on no curve
    (bisector, "_pair_kernel", "_squarefree_kernel", lambda n: 1, (),
     lambda: bisector.bisect(1, 7), InvariantError, r"^\(1, 7\) do not lie on x\^2 - 1 y\^2 = -1"),
    (bisector, "_slopes", "_pair_kernel", edit_kernel(lambda d, A, A2, B, B2, D: (d, A, A2 + 1, B, B2, D)), (),
     lambda: bisector.bisect(1, 7), InvariantError, r"^bisector slopes 19/7 and -3 are not perpendicular$"),
    (bisector, "bisect", "_pair_kernel", edit_kernel(lambda d, A, A2, B, B2, D: (d, A, A2, B, A2, D)), (),
     lambda: bisector.bisect(1, 7), InvariantError, r"^degenerate bisector denominator for \(1, 7\)$"),
    (bisector, "integral_generate", "_slopes", lambda *a: (lambda c, c2: (c + Fraction(1, 2), c2))(*real_slopes(*a)), (),
     lambda: bisector.integral_generate(ctx2, 1, 1), InvariantError, r"^integral triple has non-integral slope 5/2$"),
    # sqrt(34) = [5; 1, 4, 1, 10]: the last term no longer closes on 2*a0, or the first one moves the convergent
    (pellcore, "continued_fraction_sqrt", "_period", edit_period(lambda t: t[:-1] + (t[-1] + 1,)), (),
     lambda: pellcore.continued_fraction_sqrt(34), InvariantError, r"^period of sqrt\(34\) does not close on 2\*a0$"),
    (pellcore, "make_context", "_period", edit_period(lambda t: (t[0] + 1,) + t[1:]),
     (pellcore.make_context, solver._eta_power),
     lambda: make_context(34), InvariantError, r"^convergent of omega for d = 34 gives .*, not a unit"),
    # N(eta) = +1 on d = 34, so h+ = 2h is even
    (pellcore, "class_number", "_narrow_class_number", lambda D: real_h(D) + 1, (pellcore.class_number,),
     lambda: pellcore.class_number(34), InvariantError, r"^odd narrow class number 5 with N\(eta\) = 1 for d = 34$"),
    (pellcore, "_xi_cached", "strict_hits", no_hits, (pellcore._xi_cached, solver._xi_power),
     lambda: pellcore.xi(ctx34, 3), InvariantError, r"^no fundamental element found for d=34, p=3 within level bound$"),
    (pellcore, "_solves", "strict_hits", lambda *args: ((x, y + 1, s) for x, y, s in real_hits(*args)),
     (pellcore._xi_cached, solver._xi_power), lambda: pellcore.xi(ctx34, 3), XiEntryError,
     r"^XiEntry\(d=34, p=3, .* is not a positive strictly primitive solution$"),
]


def fire(module, site, kernel, broken, caches, call, error, message):
    real = getattr(module, kernel)
    for cache in caches:
        cache.cache_clear()
    setattr(module, kernel, broken)
    try:
        call()
        return "no error"
    except Exception as e:
        tb = e.__traceback__
        while tb.tb_next:
            tb = tb.tb_next
        where = tb.tb_frame.f_globals["__name__"] + "." + tb.tb_frame.f_code.co_name
        return type(e).__name__, where, re.search(message, str(e)) is not None
    finally:
        setattr(module, kernel, real)
        for cache in caches:
            cache.cache_clear()


def expected(module, site, kernel, broken, caches, call, error, message):
    return error.__name__, f"{module.__name__}.{site}", True
"""


def _cases():
    namespace = {}
    exec(SELF_CHECKS, namespace)
    return namespace


def test_a_broken_kernel_fails_its_self_check():
    namespace = _cases()
    for case in namespace["cases"]:
        assert namespace["fire"](*case) == namespace["expected"](*case), case[:3]


def test_a_broken_kernel_fails_its_self_check_under_optimize():
    code = SELF_CHECKS + "print(__debug__)\nfor case in cases:\n    print(fire(*case))\n"
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    namespace = _cases()
    assert r.stdout.splitlines() == ["False"] + [str(namespace["expected"](*case)) for case in namespace["cases"]], (
        r.stdout + r.stderr)


def _raise_sites(node, module, function=None):
    """(module, function) of each raise of a CHECKED error under node, one per raise."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raise_sites(child, module, child.name)
            continue
        if (isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) in CHECKED):
            yield module, function
        yield from _raise_sites(child, module, function)


def test_every_self_check_in_src_has_a_row():
    """A new raise of InvariantError or XiEntryError arrives with its row in SELF_CHECKS."""
    sites = Counter()
    for path in sorted((SRC / "pellbisect").glob("*.py")):
        sites.update(_raise_sites(ast.parse(path.read_text()), f"pellbisect.{path.stem}"))
    rows = Counter((module.__name__, site) for module, site, *_ in _cases()["cases"])
    assert sites == rows
