import importlib
import json
import os
import pkgutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

import pellbisect
from pellbisect import arith, pellcore
from pellbisect.arith import is_prime, is_squarefree, primes_upto
from pellbisect.oracle import SearchBox, brute_xi
from pellbisect.pellcore import XiEntry, XiEntryError, class_number, in_s, make_context, spectrum, xi
from pellbisect.quadfield import InvariantError, NotSquareFreeError, QuadElem

SRC = Path(__file__).resolve().parents[1] / "src"

TABLE_DS = (2, 5, 10, 13, 17, 26, 29, 34)


def entry(d, p):
    return xi(make_context(d), p)


def test_in_s_examples():
    assert in_s(make_context(5), 2)
    assert not in_s(make_context(2), 3)
    assert in_s(make_context(29), 5)
    with pytest.raises(ValueError):
        in_s(make_context(2), 4)


def test_xi_reference_values():
    cases = [
        (2, 7, 1, 3, 1, 1),
        (17, 2, 3, 5, 1, 1),
        (34, 3, 2, 5, 1, -1),
        (13, 2, 2, 11, 3, 1),
        (34, 11, 2, 27, 5, -1),
        (34, 29, 2, 3, 5, -1),
        (26, 19, 2, 45, 8, 1),
        (29, 13, 1, 97, 18, 1),
        (10, 13, 2, 23, 6, 1),
        (5, 2, 2, 3, 1, 1),
    ]
    for d, p, l, x, y, sign in cases:
        e = entry(d, p)
        assert (e.l, e.x, e.y, e.norm_sign) == (l, x, y, sign), (d, p)


def test_xi_outside_spectrum_is_none():
    assert entry(2, 3) is None
    assert entry(10, 5) is None  # ramified
    assert entry(34, 2) is None


def test_spectrum_34():
    s = spectrum(make_context(34), 97)
    assert sorted(s.s_minus) == [3, 5, 11, 29, 37, 61]
    assert s.primes == (3, 5, 11, 29, 37, 47, 61, 89)


def test_spectrum_2_has_empty_minus_part():
    s = spectrum(make_context(2), 97)
    assert s.s_minus == frozenset()


def test_spectrum_10_keys():
    s = spectrum(make_context(10), 97)
    assert s.primes == (3, 13, 31, 37, 41, 43, 53, 67, 71, 79, 83, 89)


def test_spectrum_get_bound():
    s = spectrum(make_context(2), 31)
    with pytest.raises(ValueError):
        s.get(37)
    for p in ("a", None):
        with pytest.raises(ValueError, match="p must be an integer"):
            spectrum(make_context(34), 97).get(p)
    with pytest.raises(ValueError, match="pmax must be at least 2"):
        spectrum(make_context(2), 1)


@pytest.mark.parametrize("d", TABLE_DS)
def test_entries_are_strictly_primitive_minimal(d):
    """Every stored entry matches the naive sweep's (l, y)-minimal hit."""
    ctx = make_context(d)
    box = SearchBox(y_bound=3000)
    for p in primes_upto(97):
        e = xi(ctx, p)
        brute = brute_xi(d, p, 3 * ctx.h + 2, box)
        if e is None:
            # no prime-power modulus admits a strictly primitive solution
            assert brute is None or not in_s(ctx, p)
            continue
        assert brute == (e.l, e.x, e.y, e.norm_sign)


from pellbisect.arith import is_squarefree


@pytest.mark.parametrize("d", [d for d in range(2, 35) if is_squarefree(d)])
def test_minimality_small_primes_all_d(d):
    ctx = make_context(d)
    box = SearchBox(y_bound=2000)
    for p in primes_upto(13):
        e = xi(ctx, p)
        brute = brute_xi(d, p, 3 * ctx.h + 2, box)
        if e is None:
            assert not in_s(ctx, p)
        else:
            assert brute == (e.l, e.x, e.y, e.norm_sign)


def test_membership_matches_split_rule():
    for d in TABLE_DS:
        ctx = make_context(d)
        for p in primes_upto(97):
            member = in_s(ctx, p)
            if p == 2:
                if d % 8 == 5 and not ctx.eta_in_zd:
                    assert member
                else:
                    assert member == (d % 8 == 1)
            else:
                from pellbisect.pellcore import splits

                assert member == splits(d, p)


def test_no_l1_entry_at_2_for_odd_d():
    # |x^2 - d y^2| = 2 is impossible mod 4 when d = 1 mod 4
    for d in (5, 13, 17, 29):
        e = entry(d, 2)
        if e is not None:
            assert e.l >= 2


def test_xi2_scan_starts_at_level_3_for_d_1_mod_8(monkeypatch):
    """For d = 1 mod 8 an even norm with gcd(x, d y) = 1 makes x and y odd, so x^2 - d y^2
    = 1 - d = 0 mod 8: the cold scan for xi_2 starts at 2^3. Each square-free d below 200
    that answers within 0.5 s matches its row of tests/data/xi_sympy.json, which has one for
    every square-free d < 300 and spectrum prime p <= 97."""
    rows = {tuple(row[:2]): row for row in json.loads((SRC.parent / "tests/data/xi_sympy.json").read_text())}
    real, moduli = pellcore.strict_hits, []
    monkeypatch.setattr(pellcore, "strict_hits", lambda d, n, *rest: moduli.append(n) or real(d, n, *rest))
    answered = 0
    for d in filter(is_squarefree, range(17, 200, 8)):
        moduli.clear()
        try:
            with _within(0.5):
                e = pellcore._xi_cached.__wrapped__(d, 2)
        except TimeoutError:
            continue
        assert moduli[0] == 8 and e.l >= 3, d
        assert [d, 2, e.l, e.x, e.y, e.norm_sign] == rows[d, 2]
        answered += 1
    assert answered >= 10


def test_xi2_is_a_unit_multiple_of_2eta():
    """For d = 5 mod 8 with a half-coordinate unit, xi_2 lands in the family
    2*eta^k; the sign convention picks k = 2 here, not k = 1."""
    for d in (5, 13, 29):
        ctx = make_context(d)
        e = entry(d, 2)
        assert e.elem == 2 * ctx.eta**2


def test_d37_spectrum_needs_levels_beyond_h():
    ctx = make_context(37)
    e = xi(ctx, 3)
    assert ctx.h == 1
    assert (e.l, e.x, e.y, e.norm_sign) == (3, 8, 1, 1)


def test_xi_entry_checks_its_field_at_construction():
    with pytest.raises(NotSquareFreeError):
        XiEntry(4, 5, 1, 3, 1, 1)  # 3^2 - 4 * 1^2 = 5, but 4 is not square-free
    e = xi(make_context(34), 3)
    built = QuadElem.from_int_pair(34, e.x, e.y)
    assert e.elem == built and hash(e.elem) == hash(built)
    assert type(e.elem.a) is Fraction and type(e.elem.b) is Fraction


@pytest.mark.parametrize("args", (
    (34, 3, 1, 5, 2, 1),  # 5^2 - 34*2^2 = -111
    (2, 7, 1, -3, 1, 1),  # x <= 0
    (2, 7, 1, 3, 0, 1),  # y <= 0
    (2, 7, 2, 21, 14, 1),  # 21^2 - 2*14^2 = 7^2, but gcd(21, 28) = 7
    (2, 7, 1, 3, 1, -1),  # wrong sign
))
def test_xi_entry_rejects_a_wrong_solution(args):
    with pytest.raises(XiEntryError, match="not a positive strictly primitive solution"):
        XiEntry(*args)
    assert issubclass(XiEntryError, ValueError)


def test_xi_entry_rejects_a_wrong_solution_under_optimize():
    code = (
        "from pellbisect import XiEntry, XiEntryError\n"
        "print(__debug__)\n"
        "try:\n"
        "    print(XiEntry(34, 3, 1, 5, 2, 1))\n"
        "except XiEntryError:\n"
        "    print('XiEntryError')\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert r.stdout.split() == ["False", "XiEntryError"], r.stdout + r.stderr


def test_xi_entry_elem_is_integral():
    for d in TABLE_DS:
        for e in spectrum(make_context(d), 97).entries:
            assert e.elem.int_coords() == (e.x, e.y)


def test_level_bounds_on_reference_range():
    """For the reference d's, odd primes stay within the class-number bound
    and p = 2 within the cofactor-adjusted one."""
    for d in TABLE_DS:
        ctx = make_context(d)
        for e in spectrum(ctx, 97).entries:
            if e.p != 2:
                assert e.l <= ctx.h
            elif d % 8 == 5:
                assert e.l == 2
            else:
                assert 3 <= e.l <= ctx.h + 2


def test_spectrum_is_memoized_per_d_and_pmax():
    ctx = make_context(34)
    s97 = spectrum(ctx, 97)
    assert spectrum(ctx, 97) is s97
    assert spectrum(make_context(34), 97) is s97
    assert spectrum(ctx, 89) is not s97 and spectrum(make_context(13), 97) is not s97
    cache = pellcore._spectrum_cached
    assert cache.cache_info().maxsize is not None  # bounded
    # what a sweep over every module-level cache_clear does: the next call is cold
    for obj in vars(pellcore).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    assert cache.cache_info().currsize == 0
    fresh = spectrum(ctx, 97)
    assert fresh is not s97 and fresh == s97


def test_every_cache_of_the_package_is_bounded():
    """A long-lived caller (a server, a sweep over many d) must not grow a memo forever."""
    caches = {}
    for m in pkgutil.iter_modules(pellbisect.__path__):
        if m.name != "__main__":
            for obj in vars(importlib.import_module(f"pellbisect.{m.name}")).values():
                if callable(getattr(obj, "cache_info", None)):
                    caches[f"{obj.__module__}.{obj.__qualname__}".removeprefix("pellbisect.")] = obj
    assert set(caches) == {"arith.is_prime", "arith.is_squarefree", "pellcore.make_context", "pellcore._scan_constants",
                           "pellcore._xi_cached", "pellcore._spectrum_cached", "pellcore.class_number",
                           "solver._fundamental_window", "solver._verdict"}
    unbounded = [name for name, cache in caches.items() if cache.cache_info().maxsize is None]
    assert unbounded == []


@contextmanager
def _within(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_level_one_xi_never_computes_the_class_number():
    """h only guards the level loop: a hit at l = 1 answers without it, so
    the 0.8 s class number of d = 10^8 + 1 is never paid."""
    ctx = make_context(10**8 + 1)
    h_misses = class_number.cache_info().misses
    xi_misses = pellcore._xi_cached.cache_info().misses
    with _within(0.5):
        e = xi(ctx, 360323)
    assert (e.l, e.x, e.y, e.norm_sign) == (1, 10018, 1, 1)
    assert pellcore._xi_cached.cache_info().misses == xi_misses + 1  # the call was cold
    assert class_number.cache_info().misses == h_misses


def test_the_level_guard_stops_after_3h_plus_2_levels(monkeypatch):
    ctx = make_context(34)
    assert ctx.h == 2
    p = next(p for p in range(101, 400) if is_prime(p) and in_s(ctx, p))  # not cached elsewhere
    moduli = []

    def nothing(d, n, y_bound, signs):
        moduli.append(n)
        return iter(())

    monkeypatch.setattr(pellcore, "strict_hits", nothing)
    with pytest.raises(InvariantError, match=f"d=34, p={p} within level bound"):
        xi(ctx, p)
    assert moduli == [p**l for l in range(1, 9)]


def test_primality_is_checked_where_p_enters_not_per_sieve_prime(monkeypatch):
    calls = []
    monkeypatch.setattr(pellcore, "is_prime", lambda n: calls.append(n) or is_prime(n))
    cold = [pellcore._xi_cached.__wrapped__(17, p) for p in primes_upto(97)]
    assert calls == [] and [e for e in cold if e] == list(spectrum(make_context(17), 97).entries)
    for check in (xi, in_s):
        with pytest.raises(ValueError, match="^9 is not prime$"):
            check(make_context(17), 9)
    assert calls == [9, 9]


def test_a_warm_xi_repeats_no_trial_division(monkeypatch):
    """is_prime is memoized, so the solver's per-factor xi lookups on a warm
    (d, p) pay no factorization; a composite p still raises."""
    ctx = make_context(34)
    xi(ctx, 89)
    calls = []
    real = arith.factorize
    monkeypatch.setattr(arith, "factorize", lambda n: calls.append(n) or real(n))
    assert xi(ctx, 89) == xi(make_context(34), 89)
    assert calls == []
    arith.is_prime.cache_clear()
    with pytest.raises(ValueError, match="^9 is not prime$"):
        xi(ctx, 9)
    assert calls == [9]


def _clear_program_caches():
    """Empty every functools cache in the package, as the benchmark does
    before each cold round."""
    for name, mod in list(sys.modules.items()):
        if name == "pellbisect" or name.startswith("pellbisect."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def test_a_scan_hit_is_checked_as_a_solution(monkeypatch):
    """A scan hit becomes an XiEntry without the public constructor's re-checks of d and
    of each int, yet its norm and gcd are still checked: a wrong (x, y) raises XiEntryError
    from xi and from spectrum."""
    real = pellcore.strict_hits
    monkeypatch.setattr(pellcore, "strict_hits", lambda *args: ((x, y + 1, s) for x, y, s in real(*args)))
    _clear_program_caches()
    for call in (lambda: xi(make_context(34), 3), lambda: spectrum(make_context(34), 97)):
        with pytest.raises(XiEntryError, match=r"^XiEntry\(d=34, p=3, .* is not a positive strictly primitive"):
            call()
    monkeypatch.undo()
    for e in spectrum(make_context(34), 97).entries:  # the private path builds what the public one does
        assert vars(e) == vars(XiEntry(**vars(e)))


def test_a_scan_hit_is_checked_as_a_solution_under_optimize():
    code = (
        "from pellbisect import pellcore\n"
        "real = pellcore.strict_hits\n"
        "pellcore.strict_hits = lambda *args: ((x, y + 1, s) for x, y, s in real(*args))\n"
        "print(__debug__)\n"
        "for call in (lambda: pellcore.xi(pellcore.make_context(34), 3),\n"
        "             lambda: pellcore.spectrum(pellcore.make_context(34), 97)):\n"
        "    try:\n"
        "        print(call())\n"
        "    except pellcore.XiEntryError as e:\n"
        "        print(type(e).__name__)\n"
    )
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
    assert r.stdout.splitlines() == ["False", "XiEntryError", "XiEntryError"], r.stdout + r.stderr


def test_cold_stays_cold(monkeypatch):
    """Once every functools cache of the package is emptied, a new spectrum scans as
    often as the first one did: no per-d constant outlives the caches, and no
    module-level dict, list or set grows as a memo would."""
    real, calls = pellcore.strict_hits, []
    monkeypatch.setattr(pellcore, "strict_hits", lambda *args: calls.append(args[:2]) or real(*args))
    modules = [importlib.import_module(f"pellbisect.{m.name}") for m in pkgutil.iter_modules(pellbisect.__path__)
               if m.name != "__main__"]

    def containers():
        return {(mod.__name__, name): len(v) for mod in modules for name, v in vars(mod).items()
                if not name.startswith("__") and isinstance(v, (dict, list, set))}

    before = containers()
    counts = []
    for _ in range(2):
        _clear_program_caches()
        calls.clear()
        assert spectrum(make_context(70), 97).d == 70
        counts.append(list(calls))
    assert counts[0] and counts[1] == counts[0]
    assert containers() == before
