"""Existence, generation and decomposition of strictly primitive integral
solutions of |x^2 - d y^2| = z, plus the scaled decomposition for square
moduli.

A solution is built from three kinds of exact factors: a unit power eta^n,
per-prime fundamental elements xi_p (or their conjugates) for spectrum
primes, and, when the prime parts left over after peeling xi powers only
become principal jointly, a single residual "core" element found by a
bounded window search.  The core also covers the forced cofactor-2 shapes
at p = 2.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, log2

from .arith import factorize, is_prime, is_square, require_ints, strict_hits
from .pellcore import PellContext, Spectrum, XiEntry, _scan_constants, _xi_cached, check_context, make_context
from .quadfield import InvariantError, QuadElem, _mul_scaled, _pow_scaled, exact_div, render_rat


@dataclass(frozen=True)
class XiPower:
    """One xi_p^exp factor; conj selects the conjugate element.

    For p = 2 with d = 1 mod 8 the base element is xi_2 / 2 (the half
    coordinate generator) and the mandatory cofactor 2 is carried by the
    representation's m flag.
    """

    p: int
    exp: int
    conj: bool = False


@dataclass(frozen=True)
class CoreFactor:
    """Residual factor for prime parts that are only jointly principal."""

    modulus: int
    x: int
    y: int
    conj: bool = False


@dataclass(frozen=True)
class Representation:
    d: int
    sign: int = 1
    m: int = 0
    n: int = 0
    terms: tuple[XiPower, ...] = ()
    core: CoreFactor | None = None
    scale: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        require_ints(d=self.d, sign=self.sign, m=self.m, n=self.n)
        if type(self.scale) not in (int, Fraction):
            raise ValueError(f"scale must be an int or a Fraction, got {self.scale!r}")
        if not isinstance(self.terms, tuple) or not all(isinstance(t, XiPower) for t in self.terms):
            raise ValueError(f"terms must be a tuple of XiPower, got {self.terms!r}")
        c = self.core
        if c is not None and not (isinstance(c, CoreFactor) and type(c.modulus) is type(c.x) is type(c.y) is int):
            raise ValueError(f"core must be None or a CoreFactor of integers, got {c!r}")
        for label in self.terms if c is None else self.terms + (c,):
            if type(label.conj) is not bool:
                raise ValueError(f"conj must be a bool, got {label!r}")

    def to_json(self) -> dict:
        """The fields in order, terms and core as dicts of their own fields."""
        core = None if self.core is None else dict(vars(self.core))
        return {"d": self.d, "sign": self.sign, "m": self.m, "n": self.n,
                "terms": [dict(vars(t)) for t in self.terms], "core": core,
                "scale": render_rat(self.scale)}


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExistenceVerdict:
    """The verdict and the split of z behind it: every solution is
    sign * 2^m * eta^n * prod(xi_p^witness_exponents[p]) * core with
    |N(core)| = core_modulus.  witness_exponents and m are set only when
    exists is true."""

    exists: bool
    case_tags: dict[int, str] = field(default_factory=dict)
    witness_exponents: dict[int, int] = field(default_factory=dict)
    core_modulus: int = 1
    m: int = 0


@lru_cache(maxsize=4096, typed=True)
def _xi_power(d: int, p: int, e: int, conj: bool) -> tuple[int, int, int]:
    """xi_p^e for a prime p, with xi_2 / 2 as the base when d = 1 mod 8, conjugated on conj, as a triple.
    With _eta_power it raises each factor of a field once.  Typed keys keep an e of 1.0 or True apart
    from 1, so _pow_scaled refuses it."""
    entry = _xi_cached(d, p)  # p is prime: from factorize, or checked where rep came in
    if entry is None:
        raise ValueError(f"prime {p} is not in the spectrum of d={d}")
    return _pow_scaled(d, entry.x, -entry.y if conj else entry.y, 2 if p == 2 and d % 8 == 1 else 1, e)


@lru_cache(maxsize=256, typed=True)
def _eta_power(d: int, n: int) -> tuple[int, int, int]:
    """eta^n as a triple (see _xi_power)."""
    return _pow_scaled(d, *make_context(d).eta.scaled_coords(), n)


def _element(ctx: PellContext, label: XiPower | CoreFactor) -> tuple[int, int, int]:
    """The factor a representation's label stands for, xi_p^exp or the core, conjugated on conj, as the
    triple (x, y, m) with the factor = (x + y*sqrt(d))/m in lowest terms, m > 0."""
    if isinstance(label, CoreFactor):
        return label.x, -label.y if label.conj else label.y, 1
    return _xi_power(ctx.d, label.p, label.exp, label.conj)


def _evaluate_scaled(rep: Representation) -> tuple[int, int, int]:
    """sign * 2^m * eta^n * prod(xi powers) * core, without the scale, as the
    triple (x, y, m) with the product = (x + y*sqrt(d))/m in lowest terms, m > 0."""
    d = rep.d
    ctx = make_context(d)
    x, y, m = _mul_scaled(d, rep.sign * 2**rep.m, 0, 1, *_eta_power(d, rep.n))
    for label in rep.terms + ((rep.core,) if rep.core else ()):
        x, y, m = _mul_scaled(d, x, y, m, *_element(ctx, label))
    return x, y, m


def _checked(rep: Representation) -> Representation:
    """rep, once checked as a Representation with m in {0, 1} whose every p is prime (ValueError): the one
    gate before a caller's label is evaluated, which refuses a non-int exponent or a p outside the spectrum."""
    if not isinstance(rep, Representation):
        raise ValueError(f"need a Representation, got {rep!r}")
    if rep.m not in (0, 1):
        raise ValueError(f"m must be 0 or 1, got {rep.m}")
    for t in rep.terms:
        if not isinstance(t.p, int) or not is_prime(t.p):
            raise ValueError(f"{t.p} is not prime")
    return rep


def evaluate_representation(rep: Representation) -> QuadElem:
    """Exact product sign * 2^m * eta^n * prod(xi powers) * core * scale."""
    x, y, m = _evaluate_scaled(_checked(rep))
    num, den = rep.scale.numerator, m * rep.scale.denominator
    return QuadElem._of(rep.d, Fraction(x * num, den), Fraction(y * num, den))


@lru_cache(maxsize=1024)
def _fundamental_window(d: int, modulus: int) -> tuple[tuple[int, int, int], ...]:
    """All strictly primitive (x, y, sign) with |x^2-dy^2| = modulus and y inside the class
    window, which holds a representative of every solution class; empty means none exist."""
    y_max = _scan_constants(d)[1] * (isqrt(max(modulus - 1, 0)) + 1)  # xi's base f1 + g1*(isqrt(d) + 1)
    hits = strict_hits(d, modulus, y_max, (1, -1))
    return tuple(sorted(hits, key=lambda h: (h[1], h[0], -h[2])))


def _case_tag(ctx: PellContext, p: int, entry: XiEntry | None) -> str:
    in_spectrum = entry is not None
    if ctx.d % 8 == 5 and ctx.eta_in_zd:
        return "B1" if (p != 2 and in_spectrum) else "B2"
    if p == 2:
        if in_spectrum:
            return "A1" if ctx.eta_in_zd else "A1'"
        return "A2" if ctx.eta_in_zd else "A2'"
    return "A1" if in_spectrum else "A2"


def _two_adic_admissible(ctx: PellContext, e: int) -> bool:
    """Proven congruence constraints on e = ord_2(z) >= 1 for strictly
    primitive solutions; everything else is decided by the window search."""
    d = ctx.d
    if d % 2 == 0:
        return False
    if d % 4 == 3:
        return e <= 1
    if d % 8 == 5:
        return e == 2
    return e >= 3  # d = 1 mod 8


def _bound(d: int, spec: Spectrum) -> int:
    """spec's bound on the primes of z, once spec is checked as a Spectrum of d (ValueError): the
    one read of a Spectrum, where each public function that takes one lets it in."""
    if not isinstance(spec, Spectrum):
        raise ValueError(f"need a Spectrum, got {spec!r}")
    if spec.d != d:
        raise ValueError(f"the spectrum of d={spec.d} does not belong to d={d}")
    return spec.pmax


def _decide(ctx: PellContext, z: int, pmax: int) -> ExistenceVerdict:
    """The verdict on an integer z > 1: a prime past pmax is refused (ValueError) before
    any xi_p is read, per-prime congruences run, and z splits into xi-peelable prime powers
    (witness_exponents, with the cofactor-2 flag m) and a core modulus, which the bounded
    class-window search settles."""
    d = ctx.d
    factors = factorize(z)  # in increasing order, so the first prime past pmax is the least
    if max(factors) > pmax:
        raise ValueError(f"spectrum only covers primes <= {pmax}, asked for {min(p for p in factors if p > pmax)}")
    entries = {p: _xi_cached(d, p) for p in factors}
    tags = {p: _case_tag(ctx, p, entry) for p, entry in entries.items()}
    m = 0
    exponents: dict[int, int] = {}
    core = 1
    for p, e in factors.items():
        entry = entries[p]
        if p == 2:
            if not _two_adic_admissible(ctx, e):
                return ExistenceVerdict(exists=False, case_tags=tags)
            if entry is not None and d % 8 == 5:
                exponents[p] = 1  # e == 2 and l_2 == 2 here
            elif entry is not None and (e - 2) % (entry.l - 2) == 0:
                m = 1  # d = 1 mod 8: 2^e = 2^2 * |N(xi_2 / 2)|^k
                exponents[p] = (e - 2) // (entry.l - 2)
            else:
                core *= 2**e
        else:
            if entry is None:  # inert or ramified odd prime cannot divide z
                return ExistenceVerdict(exists=False, case_tags=tags)
            q, r = divmod(e, entry.l)
            if q:
                exponents[p] = q
            if r:
                core *= p**r
    if core > 1 and not _fundamental_window(d, core):
        return ExistenceVerdict(exists=False, case_tags=tags, core_modulus=core)
    return ExistenceVerdict(exists=True, case_tags=tags, witness_exponents=exponents, core_modulus=core, m=m)


def strict_exists(ctx: PellContext, spec: Spectrum, z: int) -> ExistenceVerdict:
    """Decide strictly primitive solvability of |x^2 - d y^2| = z, uncached.  spec only
    bounds the primes of z: each xi_p comes from the memo of xi."""
    d = check_context(ctx).d
    if not isinstance(z, int) or z <= 1:
        raise ValueError("z must be an integer > 1")
    return _decide(ctx, z, _bound(d, spec))


@lru_cache(maxsize=1)
def _verdict(d: int, z: int, pmax: int) -> ExistenceVerdict:
    """_decide for generate_strict, its decompose_strict calls and solve, which share one z.
    Its dicts are shared between the calls, so it never leaves this module."""
    return _decide(make_context(d), z, pmax)


def _choices(ctx: PellContext, plan: ExistenceVerdict) -> list[list[XiPower | CoreFactor]]:
    """The candidate factors for each part of z, each followed by its conjugate:
    the xi powers by increasing p, then the core's window elements."""
    groups: list[list[XiPower | CoreFactor]] = [
        [XiPower(p, e), XiPower(p, e, conj=True)] for p, e in sorted(plan.witness_exponents.items())
    ]
    if plan.core_modulus > 1:
        window = _fundamental_window(ctx.d, plan.core_modulus)
        groups.append(
            [CoreFactor(plan.core_modulus, x, y, c) for x, y, _ in window for c in (False, True)]
        )
    return groups


def generate_strict(ctx, spec: Spectrum, z: int, n_range) -> list[tuple[int, int]]:
    """All strictly primitive solutions reachable with unit exponent in
    n_range, normalized to y >= 0, deduplicated and sorted by (y, x)."""
    d = check_context(ctx).d
    if not isinstance(n_range, Iterable):
        raise ValueError(f"n_range must be an iterable of integers, got {n_range!r}")
    if not isinstance(z, int) or z <= 1:
        raise ValueError("z must be an integer > 1")
    plan = _verdict(d, z, _bound(d, spec))
    if not plan.exists:
        raise ValueError(f"|x^2-{d}y^2| = {z} has no strictly primitive solutions")
    return _generate(ctx, plan, z, n_range)


def _generate(ctx: PellContext, plan: ExistenceVerdict, z: int, n_range: Iterable) -> list[tuple[int, int]]:
    """generate_strict's solutions from a yes plan for z, over checked inputs."""
    d = ctx.d
    stems = [(2**plan.m, 0, 1)]
    for group in _choices(ctx, plan):
        elems = [_element(ctx, label) for label in group]
        stems = [_mul_scaled(d, *s, *c) for s in stems for c in elems]

    results: set[tuple[int, int]] = set()
    for n in n_range:
        unit = _eta_power(d, n)
        for stem in stems:
            x, y, m = _mul_scaled(d, *stem, *unit)  # -stem * unit normalizes to the same (x, y)
            if m != 1:  # not in Z[sqrt(d)]
                continue
            if gcd(x, d * y) != 1:  # also rules out y = 0, since z > 1
                continue
            if abs(x * x - d * y * y) != z:
                raise InvariantError(f"generated ({x}, {y}) does not have modulus {z}")
            results.add((x, y) if y > 0 else (-x, -y))
    return sorted(results, key=lambda xy: (xy[1], xy[0]))


def _unit_exponent(ctx: PellContext, x: int, y: int, m: int) -> tuple[int, int]:
    """Write a unit u = (x + y*sqrt(d))/m of O_K, in lowest terms, as sign * eta^n.
    u is in O_K when m = 1, or m = 2 and d = 1 mod 4 (the norm then forces x, y odd).
    |u| > 1 exactly when u's two coordinates share a sign, since |u * conj(u)| = 1, and
    2|x|/m = |u| +- 1/|u|.  So the sizes of 2|x| and m over log2(eta) guess n, and one product by
    eta^-n, raised outside the memo, takes the guess off; exact steps by eta^-1 or eta, while the
    coordinates share a sign or not, finish at +-1: the float only guesses, integers decide."""
    d = ctx.d
    if not (m == 1 or m == 2 and d % 4 == 1) or abs(x * x - d * y * y) != m * m:
        raise ValueError(f"residual ({x} + {y}*sqrt({d}))/{m} is not a unit of O_K; inconsistent decomposition")
    n = 0
    if y:  # not +-1
        ex, ey, em = _eta_power(d, 1)
        log_eta = log2((ex << 64) + isqrt(d * ey * ey << 128)) - 64 - log2(em)  # log2(ex + ey*sqrt(d)) - log2(em)
        n = round((log2(abs(x)) + 1 - log2(m)) / log_eta) * (1 if (x > 0) == (y > 0) else -1)
        x, y, m = _mul_scaled(d, x, y, m, *_pow_scaled(d, ex, ey, em, -n))
    while y:
        step = -1 if x * y > 0 else 1
        x, y, m = _mul_scaled(d, x, y, m, *_eta_power(d, step))
        n -= step
    return n, x // m


def decompose_strict(ctx, spec: Spectrum, x: int, y: int) -> Representation:
    """Canonical factorization of a strictly primitive solution."""
    require_ints(x=x, y=y)
    d = check_context(ctx).d
    if abs(x * x - d * y * y) <= 1:
        raise ValueError("need |x^2 - d y^2| > 1")
    pmax = _bound(d, spec)
    if gcd(x, d * y) != 1:
        raise ValueError(f"({x}, {y}) is not strictly primitive for d={d}")
    return _label(ctx, pmax, x, y)


def _label(ctx: PellContext, pmax: int, a: int | Fraction, b: int | Fraction) -> Representation:
    """The canonical label of a + b*sqrt(d), a and b integers or rationals: the one peel.  Cleared by
    their least common denominator den, the pair (x, y) loses its gcd g into the scale g/den, and the
    rest, a unit or a strictly primitive solution whose primes pmax bounds, is peeled.  The 2 outside
    the factors comes off first, as alpha = (x + y*sqrt(d))/2, integral in O_K: when m = 1, and on half
    (d = 5 mod 8, xi_2 a witness, den even), where xi_2 / 2 is a unit, so xi_2's group is skipped and
    the scale takes the 2.  Then one factor per group of _choices.  x + y*sqrt(d) is divisible by no
    rational prime, so for an odd p exactly one prime over p divides it, and it is xi_p's when its
    product with conj(xi_p) is 0 mod p: that residue picks xi_p^e or its conjugate.  p = 2 and the core
    take the first choice that divides, the unconjugated element before its conjugate.  Once the xi
    powers are off, |N(alpha)| is the core modulus, so an exact quotient by a window element is already
    a unit, and one walk names it +-eta^n (with xi_2 / 2 = +-eta^k on half).  A unit's plan is empty."""
    d = ctx.d
    den = lcm(a.denominator, b.denominator)
    x, y = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    g = gcd(x, y)
    x, y, scale = x // g, y // g, Fraction(g, den)
    z = abs(x * x - d * y * y)
    plan = _verdict(d, z, pmax) if z > 1 else ExistenceVerdict(exists=True)
    if not plan.exists:
        raise InvariantError(f"({x}, {y}) is a solution, yet the verdict says none exists")
    half = d % 8 == 5 and 2 in plan.witness_exponents and den % 2 == 0
    h = 2 if plan.m or half else 1
    alpha = QuadElem._of(d, Fraction(x, h), Fraction(y, h))
    peeled: list[XiPower | CoreFactor] = []
    for group in _choices(ctx, plan)[half:]:  # xi_2's group sorts first; half skips it
        if isinstance(group[0], XiPower) and group[0].p != 2:
            p, entry = group[0].p, _xi_cached(d, group[0].p)
            over = (x * entry.x - d * y * entry.y) % p == (y * entry.x - x * entry.y) % p == 0
            group = group[:1] if over else group[1:]  # (x + y*sqrt(d)) * conj(xi_p) = 0 mod p: xi_p's prime
        for label in group:
            x2, y2, m2 = _element(ctx, label)
            quotient = exact_div(alpha, QuadElem._of(d, Fraction(x2, m2), Fraction(y2, m2)))
            if quotient is not None:
                alpha = quotient
                peeled.append(label)
                break
        else:
            raise InvariantError(f"no choice of {group[0]} divides ({x}, {y})")

    n, sign = _unit_exponent(ctx, *alpha.scaled_coords())
    core = peeled.pop() if plan.core_modulus > 1 else None
    rep = Representation(d=d, sign=sign, m=plan.m, n=n, terms=tuple(peeled), core=core,
                         scale=scale * 2 if half else scale)
    if _evaluate_scaled(rep) != (x, y, 2 if half else 1):
        raise InvariantError(f"{rep} does not evaluate to ({x}, {y})" + (f" * {scale}" if scale != 1 else ""))
    return rep


def decompose_square(ctx, spec: Spectrum, x: int, y: int) -> Representation:
    """Factorization of any integral solution of |x^2 - d y^2| = z^2: the
    gcd cofactor becomes the scale, the strictly primitive core is peeled."""
    require_ints(x=x, y=y)
    z2 = abs(x * x - check_context(ctx).d * y * y)
    if z2 <= 1 or not is_square(z2):
        raise ValueError("|x^2 - d y^2| must be a perfect square > 1")
    return _label(ctx, _bound(ctx.d, spec), x, y)


def solve(ctx: PellContext, z: int, n_range) -> tuple[ExistenceVerdict, list[tuple[int, int, Representation]]]:
    """The verdict on |x^2 - d y^2| = z and, on a yes, each strictly primitive solution with
    unit exponent in n_range as (x, y, its decompose_strict), in generate_strict's order."""
    d = check_context(ctx).d
    if not isinstance(z, int) or z <= 1:
        raise ValueError("z must be an integer > 1")
    if not isinstance(n_range, Iterable):
        raise ValueError(f"n_range must be an iterable of integers, got {n_range!r}")
    plan = _verdict(d, z, z)  # the one decision, bounded by z itself; each peel reads it from the memo
    verdict = replace(plan, case_tags=dict(plan.case_tags), witness_exponents=dict(plan.witness_exponents))
    solutions = _generate(ctx, plan, z, n_range) if plan.exists else []
    return verdict, [(x, y, _label(ctx, z, x, y)) for x, y in solutions]


def decompose(ctx: PellContext, x: int, y: int) -> Representation:
    """Canonical factorization of an integral solution of |x^2 - d y^2| = z > 1: decompose_strict's
    when gcd(x, d y) = 1, else decompose_square's, which answers for a square z with scale gcd(x, y) > 1."""
    require_ints(x=x, y=y)
    d = check_context(ctx).d
    z = abs(x * x - d * y * y)
    if z <= 1:
        raise ValueError("|x^2 - d y^2| must exceed 1")
    if gcd(x, d * y) != 1 and not is_square(z):
        raise ValueError("|x^2 - d y^2| must be a perfect square > 1")
    return _label(ctx, z, x, y)  # z bounds the primes of z / g^2


def validate_representation(rep: Representation) -> ValidationReport:
    """rep is valid when it passes evaluate_representation's gate and the peel gives it back: its
    value must be a point of x^2 - d y^2 = +-1 or a solution that decompose accepts, and be labelled
    rep.  The one problem is the gate's or evaluation's ValueError, or the round trip's."""
    if not isinstance(rep, Representation):
        raise ValueError(f"need a Representation, got {rep!r}")
    ctx = make_context(rep.d)
    try:
        x, y, m = _evaluate_scaled(_checked(rep))
    except ValueError as e:
        return ValidationReport(False, (str(e),))
    a, b = Fraction(x, m) * rep.scale, Fraction(y, m) * rep.scale
    norm = abs(a * a - rep.d * b * b)
    if norm != 1 and not (norm > 1 and a.denominator == b.denominator == 1
                          and (gcd(a.numerator, rep.d * b.numerator) == 1 or is_square(norm.numerator))):
        return ValidationReport(False, (f"its value is no point of x^2 - {rep.d}y^2 = +-1 and no solution "
                                        "that decompose accepts",))
    label = _label(ctx, norm.numerator * a.denominator, a, b)  # a point clears to den^2, a solution to |N|
    return ValidationReport(label == rep, () if label == rep else (f"the peel labels its value {label}",))
