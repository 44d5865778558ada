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

from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import factorize, is_prime, is_square, strict_hits
from .pellcore import PellContext, make_context
from .quadfield import QuadElem, RingTag, exact_div, in_ring, render_rat
from .spectrum import Spectrum, xi


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

    def to_json(self) -> dict:
        return {**asdict(self), "scale": render_rat(self.scale)}


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


def _element(ctx: PellContext, label: XiPower | CoreFactor) -> QuadElem:
    """The element a representation's factor stands for: xi_p^exp (with
    xi_2 / 2 as the base when d = 1 mod 8) or the core, conjugated on conj."""
    if isinstance(label, CoreFactor):
        core = QuadElem.from_int_pair(ctx.d, label.x, label.y)
        return core.conj() if label.conj else core
    entry = xi(ctx, label.p)
    if entry is None:
        raise ValueError(f"prime {label.p} is not in the spectrum of d={ctx.d}")
    base = entry.elem / 2 if label.p == 2 and ctx.d % 8 == 1 else entry.elem
    return (base.conj() if label.conj else base) ** label.exp


def evaluate_representation(rep: Representation) -> QuadElem:
    """Exact product sign * 2^m * eta^n * prod(xi powers) * core * scale."""
    ctx = make_context(rep.d)
    out = ctx.eta**rep.n * (2**rep.m) * rep.sign
    for label in rep.terms + ((rep.core,) if rep.core else ()):
        out = out * _element(ctx, label)
    return out * rep.scale


def solution_y_bound(ctx: PellContext, modulus: int) -> int:
    """Window guaranteed to contain a representative of every solution class."""
    d = ctx.d
    return (ctx.f1 + ctx.g1 * (isqrt(d) + 1)) * (isqrt(max(modulus - 1, 0)) + 1)


@lru_cache(maxsize=None)
def _fundamental_window(d: int, modulus: int) -> tuple[tuple[int, int, int], ...]:
    """All strictly primitive (x, y, sign) with |x^2-dy^2| = modulus and y
    inside the class window; empty means no strictly primitive solutions."""
    hits = strict_hits(d, modulus, solution_y_bound(make_context(d), modulus), (1, -1))
    return tuple(sorted(hits, key=lambda h: (h[1], h[0], -h[2])))


def _case_tag(ctx: PellContext, spec: Spectrum, p: int) -> str:
    in_spectrum = spec.get(p) is not None
    if ctx.d % 8 == 5 and ctx.eta_in_zd:
        return "B1" if (p != 2 and in_spectrum) else "B2"
    if p == 2:
        if in_spectrum:
            return "A1" if ctx.eta_in_zd else "A1'"
        return "A2" if ctx.eta_in_zd else "A2'"
    return "A1" if in_spectrum else "A2"


def _two_adic_admissible(ctx: PellContext, e: int) -> bool:
    """Proven congruence constraints on ord_2(z) for strictly primitive
    solutions; everything else is decided by the window search."""
    if e == 0:
        return True
    d = ctx.d
    if d % 2 == 0:
        return False
    if d % 4 == 3:
        return e <= 1
    if d % 8 == 5:
        return e == 2
    return e >= 3  # d = 1 mod 8


def strict_exists(ctx: PellContext, spec: Spectrum, z: int) -> ExistenceVerdict:
    """Decide strictly primitive solvability of |x^2 - d y^2| = z.

    Per-prime congruence conditions run first; z is then split into xi-peelable
    prime powers (the verdict's witness_exponents, with the cofactor-2 flag m)
    and a residual core modulus, which the bounded class-window search settles.
    """
    if z <= 1:
        raise ValueError("z must be an integer > 1")
    if spec.d != ctx.d:
        raise ValueError(f"the spectrum of d={spec.d} does not belong to d={ctx.d}")
    factors = factorize(z)
    tags = {p: _case_tag(ctx, spec, p) for p in factors}
    m = 0
    exponents: dict[int, int] = {}
    core = 1
    for p, e in sorted(factors.items()):
        entry = spec.get(p)
        if p == 2:
            if not _two_adic_admissible(ctx, e):
                return ExistenceVerdict(exists=False, case_tags=tags)
            if entry is not None and ctx.d % 8 == 5:
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
    if core > 1 and not _fundamental_window(ctx.d, core):
        return ExistenceVerdict(exists=False, case_tags=tags, core_modulus=core)
    return ExistenceVerdict(
        exists=True, case_tags=tags, witness_exponents=exponents, core_modulus=core, m=m
    )


def _choices(ctx: PellContext, plan: ExistenceVerdict) -> list[list[XiPower | CoreFactor]]:
    """The candidate factors for each part of z, each followed by its
    conjugate: odd primes first, then p = 2, then the core's window
    elements.  This is the order decompose peels in: the quotient only stays
    integral until the cofactor 2 hidden in the p = 2 factor comes off."""
    groups: list[list[XiPower | CoreFactor]] = [
        [XiPower(p, e), XiPower(p, e, conj=True)]
        for p, e in sorted(plan.witness_exponents.items(), key=lambda pe: (pe[0] == 2, pe[0]))
    ]
    if plan.core_modulus > 1:
        window = _fundamental_window(ctx.d, plan.core_modulus)
        groups.append(
            [CoreFactor(plan.core_modulus, x, y, c) for x, y, _ in window for c in (False, True)]
        )
    return groups


def _normalize(elem: QuadElem) -> tuple[int, int]:
    x, y = elem.int_coords()
    if y < 0:
        x, y = -x, -y
    return x, y


def generate_strict(ctx, spec: Spectrum, z: int, n_range) -> list[tuple[int, int]]:
    """All strictly primitive solutions reachable with unit exponent in
    n_range, normalized to y >= 0, deduplicated and sorted by (y, x)."""
    plan = strict_exists(ctx, spec, z)
    if not plan.exists:
        raise ValueError(f"|x^2-{ctx.d}y^2| = {z} has no strictly primitive solutions")

    stems = [QuadElem(ctx.d, Fraction(2**plan.m), Fraction(0))]
    for group in _choices(ctx, plan):
        elems = [_element(ctx, label) for label in group]
        stems = [s * c for s in stems for c in elems]

    results: set[tuple[int, int]] = set()
    for n in n_range:
        unit = ctx.eta**n
        for stem in stems:
            cand = stem * unit  # -cand normalizes to the same (x, y)
            if not in_ring(cand, RingTag.ZSQRTD):
                continue
            x, y = cand.int_coords()
            if gcd(x, ctx.d * y) != 1:  # also rules out y = 0, since z > 1
                continue
            assert abs(x * x - ctx.d * y * y) == z
            results.add(_normalize(cand))
    return sorted(results, key=lambda xy: (xy[1], xy[0]))


def _unit_exponent(ctx: PellContext, u: QuadElem) -> tuple[int, int]:
    """Write a unit u of O_K as sign * eta^n by exact division, no logs: one
    step per power of eta, towards +-1.  |u| > 1 exactly when u's two
    coordinates share a sign, since |u * conj(u)| = 1."""
    if not in_ring(u, RingTag.OK) or abs(u.norm()) != 1:
        raise ValueError(f"residual {u} is not a unit of O_K; inconsistent decomposition")
    n, eta_inv = 0, ctx.eta.inverse()
    while u.b != 0:
        if u.a * u.b > 0:
            u, n = u * eta_inv, n + 1
        else:
            u, n = u * ctx.eta, n - 1
    return n, int(u.a)


def decompose_strict(ctx, spec: Spectrum, x: int, y: int) -> Representation:
    """Canonical factorization of a strictly primitive solution.

    Peels one factor per part of z, the first choice that divides (so the
    unconjugated element wins a tie), and identifies the leftover unit
    +-eta^n.  Once the xi powers are off, |N(alpha)| is the core modulus,
    so an exact quotient by a window element is already a unit.
    """
    d = ctx.d
    z = abs(x * x - d * y * y)
    if z <= 1:
        raise ValueError("need |x^2 - d y^2| > 1")
    if gcd(x, d * y) != 1:
        raise ValueError(f"({x}, {y}) is not strictly primitive for d={d}")
    plan = strict_exists(ctx, spec, z)
    assert plan.exists, "a live solution contradicts the existence verdict"

    alpha = QuadElem.from_int_pair(d, x, y)
    peeled: list[XiPower | CoreFactor] = []
    for group in _choices(ctx, plan):
        for label in group:
            divisor = _element(ctx, label)
            if isinstance(label, XiPower) and label.p == 2:
                divisor = divisor * 2**plan.m
            quotient = exact_div(alpha, divisor, RingTag.OK)
            if quotient is not None:
                alpha = quotient
                peeled.append(label)
                break
        else:
            raise AssertionError(f"no choice of {group[0]} divides the input")

    n, sign = _unit_exponent(ctx, alpha)
    terms = tuple(sorted((t for t in peeled if isinstance(t, XiPower)), key=lambda t: t.p))
    core = peeled[-1] if plan.core_modulus > 1 else None
    rep = Representation(d=d, sign=sign, m=plan.m, n=n, terms=terms, core=core)
    assert evaluate_representation(rep) == QuadElem.from_int_pair(d, x, y)
    return rep


def _decompose_scaled(ctx, spec: Spectrum, x: int, y: int, scale: Fraction) -> Representation:
    """Factorization of (x + y*sqrt(d)) * scale, where (x, y) is a unit or a
    strictly primitive solution."""
    if abs(x * x - ctx.d * y * y) == 1:
        n, sign = _unit_exponent(ctx, QuadElem.from_int_pair(ctx.d, x, y))
        rep = Representation(d=ctx.d, sign=sign, n=n, scale=scale)
    else:
        rep = replace(decompose_strict(ctx, spec, x, y), scale=scale)
    assert evaluate_representation(rep) == QuadElem.from_int_pair(ctx.d, x, y) * scale
    return rep


def decompose_square(ctx, spec: Spectrum, x: int, y: int) -> Representation:
    """Factorization of any integral solution of |x^2 - d y^2| = z^2: the
    gcd cofactor becomes the scale, the strictly primitive core is peeled."""
    z2 = abs(x * x - ctx.d * y * y)
    z = isqrt(z2)
    if z2 <= 1 or z * z != z2:
        raise ValueError("|x^2 - d y^2| must be a perfect square > 1")
    g = gcd(x, y)
    return _decompose_scaled(ctx, spec, x // g, y // g, Fraction(g))


def validate_representation(rep: Representation) -> ValidationReport:
    """Structural checks: sign, m, a positive scale, spectrum membership, the
    core's modulus, the unit-exponent congruence for odd moduli, and the
    parity/cap conditions when a scale is present."""
    ctx = make_context(rep.d)
    problems: list[str] = []
    if rep.sign not in (1, -1):
        problems.append(f"sign must be +-1, got {rep.sign}")
    if rep.m not in (0, 1):
        problems.append(f"m must be 0 or 1, got {rep.m}")
    if rep.scale <= 0:
        problems.append("scale must be positive")
    for t in rep.terms:
        if t.exp < 0:
            problems.append(f"negative exponent at p={t.p}")
        if not is_prime(t.p) or xi(ctx, t.p) is None:
            problems.append(f"p={t.p} is outside the spectrum of d={rep.d}")
    if rep.core is not None:
        c = rep.core
        if abs(c.x * c.x - rep.d * c.y * c.y) != c.modulus:
            problems.append(f"core ({c.x}, {c.y}) does not have modulus {c.modulus}")
    if problems:
        return ValidationReport(False, tuple(problems))

    z_core = int(abs(evaluate_representation(replace(rep, scale=Fraction(1))).norm()))
    if rep.scale.denominator == 1:
        # integral context: odd modulus with a half-coordinate unit forces
        # the unit exponent into the cube subgroup
        if z_core % 2 == 1 and not ctx.eta_in_zd and rep.n % 3 != 0:
            problems.append("unit exponent must be divisible by 3 for odd moduli")
        if rep.scale != 1:
            if not is_square(z_core):
                problems.append("scaled representations need a square core modulus")
            else:
                # only these two p = 2 caps can bind: p^(l*exp) divides
                # z_core, hence z_total^2, so exp <= 2*ord_p(z_total) // l
                z_total = isqrt(z_core) * int(rep.scale)
                e_total = (z_total & -z_total).bit_length() - 1  # ord_2(z_total)
                for t in rep.terms:
                    if t.p == 2 and not ctx.eta_in_zd and rep.n % 3 != 0:
                        cap = e_total - 1
                    elif t.p == 2 and ctx.d % 8 == 1:
                        cap = max(2 * e_total - 2, 0)
                    else:
                        continue
                    if t.exp > cap:
                        problems.append(f"exponent at p={t.p} exceeds its cap {cap}")
    else:
        # rational context: the scale must exactly cancel the core modulus
        if not is_square(z_core) or rep.scale != Fraction(1, isqrt(z_core)):
            problems.append("scale must be the inverse square root of the core modulus")
    return ValidationReport(not problems, tuple(problems))
