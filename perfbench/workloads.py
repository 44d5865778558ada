"""The four benchmark workloads: their seeded inputs, their ops and the exact
checks on every answer.

Each workload yields rounds of ops whose composition is the same in every
round; the seed picks the inputs inside that composition.  The slow
ROADMAP rungs run once, after the rounds of a traced run, under the same
cap.  The checks use plain integer and Fraction arithmetic where they can,
and run outside the timed span.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Any, Callable, Iterator

from spans import Capped

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_TABLE = os.path.join(ROOT, "tests", "data", "reference_table.csv")

TABLE_D = (2, 5, 10, 13, 17, 26, 29, 34)
PMAX = 97
N_RANGE = range(-2, 3)


# One wall-clock cap for every op.  It sits at least 3x above the slowest
# op of any workload that completes, and below every ROADMAP rung that is
# slow today (make_context(241) alone takes 1.6 s).
CAP = 1.0


class Workload:
    """A seeded source of rounds of ops plus the rungs that run once."""

    cap = CAP
    rung_names: tuple[str, ...] = ()  # the `rung` of each op of rungs()
    in_process = True  # ops run in this process, capped by SIGALRM

    def start_round(self) -> None:
        pass


@dataclass
class Op:
    """One closed-loop request: `run` is timed, `check` is not."""

    label: str
    run: Callable[[Any], Any]  # tracer -> answer
    check: Callable[[Any], list[str]]  # answer -> problems, empty when correct
    rung: str | None = None


# ---------------------------------------------------------------- helpers


def factor_small(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return factor_small(n) == {n: 1}


def is_squarefree(n: int) -> bool:
    return n > 1 and max(factor_small(n).values()) == 1


def rand_digits(rng: random.Random, k: int) -> int:
    return rng.randint(10 ** (k - 1), 10**k - 1)


class Deck:
    """Draws items in seeded order, each once per pass, so every item
    appears equally often however many rounds a run holds."""

    def __init__(self, items, rng: random.Random):
        self.items, self.rng, self.left = list(items), rng, []

    def draw(self):
        if not self.left:
            self.left = self.items[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def expected_spectrum(d: int, pmax: int, eta_in_zd: bool) -> list[int]:
    """Primes p <= pmax that split in Q(sqrt(d)), plus 2 when d = 5 mod 8
    and the unit has half-integer coordinates (Euler's criterion only)."""
    out = []
    for p in range(2, pmax + 1):
        if not is_prime(p):
            continue
        if p == 2:
            if d % 8 == 1 or (d % 8 == 5 and not eta_in_zd):
                out.append(2)
        elif d % p and pow(d, (p - 1) // 2, p) == 1:
            out.append(p)
    return out


def unit_problems(d: int, f1: int, g1: int, a: Fraction, b: Fraction, norm_eta: int) -> list[str]:
    """eps = f1 + g1 sqrt(d) has norm +-1, and eta = a + b sqrt(d) has norm
    norm_eta and is eps or a cube root of eps."""
    problems = []
    if f1 <= 0 or g1 <= 0 or f1 * f1 - d * g1 * g1 not in (1, -1):
        problems.append(f"eps = ({f1}, {g1}) does not solve |x^2-{d}y^2| = 1")
    if norm_eta not in (1, -1) or a * a - d * b * b != norm_eta:
        problems.append(f"N(eta) != {norm_eta}")
    if (a, b) != (f1, g1) and (a**3 + 3 * a * b * b * d, 3 * a * a * b + b**3 * d) != (f1, g1):
        problems.append("eta is neither eps nor a cube root of eps")
    return problems


def xi_problems(d: int, p: int, l: int, x: int, y: int, norm: int) -> list[str]:
    """x^2 - d y^2 = norm = +-p^l with x, y > 0 and gcd(x, d y) = 1."""
    if (l < 1 or x <= 0 or y <= 0 or abs(norm) != p**l or x * x - d * y * y != norm
            or gcd(x, d * y) != 1):
        return [f"xi_{p} = ({x}, {y}, l={l}) fails its norm or gcd"]
    return []


def star_holds(a: Fraction, b: Fraction, c: Fraction) -> bool:
    return (a - c) ** 2 * (b * b + 1) == (b - c) ** 2 * (a * a + 1)


def pair_is_rational(a: Fraction, b: Fraction) -> bool:
    """A rational bisector exists iff na * nb is a square, with
    na = A^2 + D^2 and nb = B^2 + D^2 over a common denominator D."""
    den = lcm(a.denominator, b.denominator)
    na = (a.numerator * (den // a.denominator)) ** 2 + den * den
    nb = (b.numerator * (den // b.denominator)) ** 2 + den * den
    r = isqrt(na * nb)
    return r * r == na * nb


def clear_program_caches() -> None:
    """Empty every functools cache in the program, so the next op is cold."""
    for name, mod in list(sys.modules.items()):
        if name == "pellbisect" or name.startswith("pellbisect."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------- fields

# Every square-free d in [2, 90) finishes its op in under 0.15 s on the
# reference machine, at least 6x below CAP; the next slow one (91)
# takes 1.05 s, which would sit next to the cap.
FIELDS_D = range(2, 90)
# ROADMAP baseline rows, with the pmax they were measured at, and d = 181
# from the hand sweep.  Every one either ends 3x below the cap or runs 8x
# past it.
FIELDS_RUNGS = (
    (223, 40, "rung.spectrum_223"), (229, 40, "rung.spectrum_229"),
    (235, 40, "rung.spectrum_235"), (326, 40, "rung.spectrum_326"),
    (181, PMAX, "rung.fields_181"), (241, 40, "rung.make_context_241"),
    (601, 40, "rung.make_context_601"), (1000003, 40, "rung.spectrum_1000003"),
)


def check_fields(d: int, pmax: int, ctx, spec) -> list[str]:
    a, b = Fraction(ctx.eta.a), Fraction(ctx.eta.b)
    problems = unit_problems(d, ctx.f1, ctx.g1, a, b, ctx.norm_eta)
    if ctx.d != d:
        problems.append(f"context for d={ctx.d}, not {d}")
    if ctx.eta_in_zd != (a.denominator == 1 and b.denominator == 1):
        problems.append("eta_in_zd disagrees with eta's coordinates")
    if spec.pmax != pmax:
        problems.append(f"spectrum pmax {spec.pmax} != {pmax}")
    primes = [e.p for e in spec.entries]
    if primes != expected_spectrum(d, pmax, ctx.eta_in_zd):
        problems.append(f"spectrum primes {primes} are not the split primes")
    for e in spec.entries:
        if e.d != d or e.norm_sign not in (1, -1):
            problems.append(f"xi_{e.p} has d={e.d} and norm sign {e.norm_sign}")
        problems += xi_problems(d, e.p, e.l, e.x, e.y, e.norm_sign * e.p**e.l)
    return problems


class Fields(Workload):
    """Cold make_context(d) + spectrum(ctx, pmax) for each square-free d."""

    name = "fields"
    rung_names = tuple(rung for _, _, rung in FIELDS_RUNGS)

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.population = [d for d in FIELDS_D if is_squarefree(d)]

    def setup(self) -> None:
        import pellbisect

        pellbisect.spectrum(pellbisect.make_context(2), PMAX)

    def op(self, d: int, pmax: int, rung: str | None = None) -> Op:
        import pellbisect

        def run(tr):
            with tr.span("pellcore.make_context"):
                ctx = pellbisect.make_context(d)
            with tr.span("spectrum.spectrum"):
                spec = pellbisect.spectrum(ctx, pmax)
            return ctx, spec

        return Op(f"fields d={d} pmax={pmax}", run,
                  lambda ans: check_fields(d, pmax, *ans), rung=rung)

    def start_round(self) -> None:
        clear_program_caches()

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            order = self.population[:]
            self.rng.shuffle(order)
            yield [self.op(d, PMAX) for d in order]

    def rungs(self) -> list[Op]:
        return [self.op(d, p, rung) for d, p, rung in FIELDS_RUNGS]


# ---------------------------------------------------------------- solve

BRUTE_Z = 10_000
BRUTE_Y = 1000


def check_solve(d: int, z: int, ans: dict) -> list[str]:
    problems = []
    sols = ans["solutions"]
    if ans["exists"] and not sols:
        problems.append("exists, but no solution in n_range")
    if not ans["exists"] and sols:
        problems.append("no verdict, yet solutions were generated")
    if sols != sorted(set(sols), key=lambda xy: (xy[1], xy[0])):
        problems.append("solutions are not unique and sorted by (y, x)")
    for (x, y), ev in zip(sols, ans["evaluated"]):
        if y <= 0 or abs(x * x - d * y * y) != z or gcd(x, d * y) != 1:
            problems.append(f"({x}, {y}) is not a strictly primitive solution for z={z}")
        if ev != (x, y):
            problems.append(f"evaluate(decompose({x}, {y})) = {ev}")
    if len(ans["evaluated"]) != len(sols):
        problems.append("not every solution was decomposed")
    if "brute_strict" in ans and ans["brute_strict"] and not ans["exists"]:
        problems.append(f"brute force finds a strictly primitive solution for z={z}")
    if "rational" in ans:
        (x, y, r), back = ans["rational"]
        if x * x - d * y * y != (-1) ** r:
            problems.append(f"rational point ({x}, {y}) is off x^2-{d}y^2 = (-1)^{r}")
        if back != (x, y):
            problems.append(f"rational round trip gives {back}, not {(x, y)}")
    return problems


class Solve(Workload):
    """strict_exists -> generate_strict -> decompose_strict/evaluate on the
    eight table d, with warm per-d caches."""

    name = "solve"
    rung_names = ("rung.spectrum_13_2999", "rung.spectrum_34_2999")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.cover = {d: PMAX for d in TABLE_D}
        self.items: list[tuple[int, int, int, bool]] = []
        self.stats = {"ops": 0, "exists": 0, "solutions": 0, "repeats": 0}

    def setup(self) -> None:
        import pellbisect

        self.entries = {}
        for d in TABLE_D:
            spec = pellbisect.spectrum(pellbisect.make_context(d), PMAX)
            self.entries[d] = [(e.p, e.l) for e in spec.entries]

    def op(self, d: int, z: int, pmax: int, rational: bool, rung: str | None = None) -> Op:
        import pellbisect
        from pellbisect import solver, rationalpell

        rng = random.Random(self.rng.random())
        if rational:
            usable = [(p, l) for p, l in self.entries[d] if not (p == 2 and d % 8 == 1)]
            p, l = rng.choice(usable)
            rep = solver.Representation(
                d=d, sign=rng.choice((1, -1)), n=rng.choice(N_RANGE),
                terms=(solver.XiPower(p=p, exp=1 if l % 2 == 0 else 2, conj=rng.random() < 0.5),))

        def run(tr):
            with tr.span("pellcore.make_context"):
                ctx = pellbisect.make_context(d)
            with tr.span("spectrum.spectrum"):
                spec = pellbisect.spectrum(ctx, pmax)
            with tr.span("solver.strict_exists"):
                verdict = solver.strict_exists(ctx, spec, z)
            sols, evaluated = [], []
            if verdict.exists:
                with tr.span("solver.generate_strict"):
                    sols = solver.generate_strict(ctx, spec, z, N_RANGE)
                for x, y in sols:
                    with tr.span("solver.decompose_strict"):
                        r = solver.decompose_strict(ctx, spec, x, y)
                    with tr.span("solver.evaluate_representation"):
                        evaluated.append(solver.evaluate_representation(r))
            ans = {"exists": verdict.exists, "solutions": list(sols), "evaluated": evaluated}
            if rational:
                with tr.span("rationalpell.generate_rational"):
                    pt = rationalpell.generate_rational(ctx, spec, rep)
                with tr.span("rationalpell.decompose_rational"):
                    back = rationalpell.decompose_rational(ctx, spec, pt)
                ans["rational"] = (pt, back)
            return ans

        def check(ans):
            ans = dict(ans)
            ans["evaluated"] = [(e.a, e.b) for e in ans["evaluated"]]
            if z <= BRUTE_Z:
                box = pellbisect.SearchBox(y_bound=BRUTE_Y)
                ans["brute_strict"] = any(h.strict for h in pellbisect.brute_solutions(d, z, box))
            if "rational" in ans:
                pt, back = ans["rational"]
                ev = solver.evaluate_representation(back)
                ans["rational"] = ((pt.x, pt.y, pt.r), (ev.a, ev.b))
            self.stats["ops"] += 1
            self.stats["exists"] += ans["exists"]
            self.stats["solutions"] += len(ans["solutions"])
            return check_solve(d, z, ans)

        return Op(f"solve d={d} z={z}", run, check, rung=rung)

    def rounds(self) -> Iterator[list[Op]]:
        rng = self.rng
        # the cost of a product grows steeply with d, so each k visits every d
        decks = {k: Deck(TABLE_D, rng) for k in (1, 2, 3, 4)}
        while True:
            fresh = []
            for k in (1, 2, 3, 4):  # products of k spectrum prime powers
                d = decks[k].draw()
                z = 1
                for p, l in rng.sample(self.entries[d], k):
                    z *= p**l
                fresh.append((d, z, PMAX, k <= 2))
            for _ in range(13):  # uniform 97-smooth z, mostly a fast "no"
                d = rng.choice(TABLE_D)
                z = rng.randint(2, BRUTE_Z)
                while max(factor_small(z)) > PMAX:
                    z = rng.randint(2, BRUTE_Z)
                fresh.append((d, z, PMAX, False))
            d = rng.choice(TABLE_D)  # one new prime above the covered pmax
            q = self.cover[d] + 1
            while not is_prime(q):
                q += 1
            self.cover[d] = q
            fresh.append((d, q, q, False))
            rng.shuffle(fresh)
            self.items += fresh
            repeats = [rng.choice(self.items) for _ in range(2)]
            self.stats["repeats"] += len(repeats)
            yield [self.op(*item) for item in fresh + repeats]

    def rungs(self) -> list[Op]:
        # an extension far past the warm pmax: slow for d = 34, quick for 13
        return [self.op(d, 2999, 2999, False, rung=rung) for d, rung in zip((13, 34), self.rung_names)]


# ---------------------------------------------------------------- bisect

# d whose unit has norm -1, so that odd powers of eta pair up in case II
CASE2_D = (2, 5, 10, 13, 17, 26, 29, 37, 41, 53)
# The shallow ladder stops where trial division can still come near the
# cap: case-I parameters of 3 digits need at most about 0.3 s, 4 digits
# reach it.  The deep rungs are 20 to 60 digits, far past it.
SHALLOW_DIGITS = (1, 2, 3)
# Trial division on a 3-digit case-I pair costs anywhere from 0.2 to 100 ms,
# so a fresh sample per run moved ops_per_s by 10 %.  That rung draws from a
# fixed set of 256 triples instead, the same for every seed, in seeded order.
CASE1_FIXED_DIGITS = 3
CASE1_FIXED_COUNT = 256
ROADMAP_PAIR = (10**15 + 37, 10**15 + 91, 999999999989)


def check_bisect(a: Fraction, b: Fraction, expected: set | None, ans) -> list[str]:
    problems = []
    rational = pair_is_rational(a, b)
    if ans is None:
        if rational:
            problems.append("NoRationalBisector, but na*nb is a square")
        if expected is not None:
            problems.append("NoRationalBisector on a generated rational pair")
        return problems
    c_plus, c_minus = ans
    if not rational:
        problems.append("rational bisector, but na*nb is not a square")
    if c_plus * c_minus != -1:
        problems.append(f"c+ * c- = {c_plus * c_minus}")
    if not (star_holds(a, b, c_plus) and star_holds(a, b, c_minus)):
        problems.append("(a-c)^2 (b^2+1) != (b-c)^2 (a^2+1)")
    if expected is not None and {c_plus, c_minus} != expected:
        problems.append(f"slopes {c_plus}, {c_minus} differ from the generator's")
    return problems


class Bisect(Workload):
    """bisect(a, b) on case-I, case-II and random slope pairs."""

    name = "bisect"
    rung_names = ("rung.bisect_60digit", "rung.bisect_case1_30", "rung.bisect_case2_60",
                  "rung.bisect_random_20", "rung.bisect_random_60")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.stats = {"ops": 0, "rational": 0}

    def setup(self) -> None:
        import pellbisect

        pellbisect.bisect(Fraction(3, 4), Fraction(12, 5))
        self.case2_pairs = []
        for d in CASE2_D:
            ctx = pellbisect.make_context(d)
            for j in range(1, 9):
                for i in range(j):
                    t, _ = pellbisect.case2_generate(ctx, ctx.eta ** (2 * i + 1), ctx.eta ** (2 * j + 1))
                    if max(len(str(v)) for v in (t.a.numerator, t.a.denominator,
                                                 t.b.numerator, t.b.denominator)) <= 4:
                        self.case2_pairs.append((d, i, j))

    def case1(self, l: int, m: int, n: int, rung: str | None = None) -> Op:
        import pellbisect

        t1, t2 = pellbisect.case1_generate(l, m, n)
        return self.op("case1", t1.a, t1.b, {t1.c, t2.c}, rung)

    def case2(self, d: int, i: int, j: int, rung: str | None = None) -> Op:
        import pellbisect

        ctx = pellbisect.make_context(d)
        t1, t2 = pellbisect.case2_generate(ctx, ctx.eta ** (2 * i + 1), ctx.eta ** (2 * j + 1))
        return self.op("case2", t1.a, t1.b, {t1.c, t2.c}, rung)

    def random_pair(self, k: int, rung: str | None = None) -> Op:
        rng = self.rng
        while True:
            a = Fraction(rng.choice((1, -1)) * rand_digits(rng, k), rand_digits(rng, k))
            b = Fraction(rng.choice((1, -1)) * rand_digits(rng, k), rand_digits(rng, k))
            if abs(a) != abs(b):
                return self.op("random", a, b, None, rung)

    def case1_params(self, k: int, rng: random.Random | None = None) -> tuple[int, int, int]:
        rng = rng or self.rng
        while True:
            l, m, n = (rand_digits(rng, k) for _ in range(3))
            # |a| = |b| happens for l*m = n^2 and for l = m
            if l != m and l * m != n * n:
                return l, m, n

    def op(self, kind: str, a: Fraction, b: Fraction, expected, rung=None) -> Op:
        import pellbisect

        def run(tr):
            with tr.span("bisector.bisect"):
                try:
                    return pellbisect.bisect(a, b)
                except pellbisect.NoRationalBisector:
                    return None

        def check(ans):
            self.stats["ops"] += 1
            self.stats["rational"] += ans is not None
            return check_bisect(a, b, expected, ans)

        return Op(f"bisect {kind} {a} {b}", run, check, rung=rung)

    def rounds(self) -> Iterator[list[Op]]:
        fixed_rng = random.Random(CASE1_FIXED_DIGITS)
        fixed = Deck([self.case1_params(CASE1_FIXED_DIGITS, fixed_rng)
                      for _ in range(CASE1_FIXED_COUNT)], self.rng)
        while True:
            ops = [self.case1(*(fixed.draw() if k == CASE1_FIXED_DIGITS else self.case1_params(k)))
                   for k in SHALLOW_DIGITS]
            ops += [self.case2(*self.rng.choice(self.case2_pairs)) for _ in range(2)]
            ops += [self.random_pair(k) for k in SHALLOW_DIGITS]
            self.rng.shuffle(ops)
            yield ops

    def rungs(self) -> list[Op]:
        import pellbisect

        d = self.rng.choice(CASE2_D)
        ctx = pellbisect.make_context(d)
        i = 1
        while len(str((ctx.eta ** (2 * i + 1)).a.numerator)) < 60:
            i += 1
        pair60, case1_30, case2_60, random20, random60 = self.rung_names
        return [
            self.case1(*ROADMAP_PAIR, rung=pair60),
            self.case1(*self.case1_params(30), rung=case1_30),
            self.case2(d, i - 1, i, rung=case2_60),
            self.random_pair(20, rung=random20),
            self.random_pair(60, rung=random60),
        ]


# ---------------------------------------------------------------- cli

CLI_SCRIPT = (
    ("context", "--d", "34"),
    ("xi", "--d", "34", "--p", "11"),
    ("spectrum", "--d", "34", "--pmax", "97"),
    ("solve", "--d", "34", "--z", "9", "--strict", "--n-range", "-2..2"),
    ("decompose", "--d", "34", "--x", "405", "--y", "75"),
    ("rational", "--d", "34", "--sign", "-1", "--max-terms", "2", "--n-range", "-2..2"),
    # not in the README: a second slow command keeps p90 inside a cluster
    ("rational", "--d", "34", "--sign", "1", "--max-terms", "2", "--n-range", "-2..2"),
    ("bisect", "--a", "3/4", "--b", "12/5"),
    ("triples", "--mode", "case1", "--range", "5"),
    ("--format", "csv", "--ascii", "table"),
    ("figure", "--a", "3/4", "--b", "12/5"),
    ("oracle", "solutions", "--d", "34", "--z", "9", "--ymax", "100"),
)
CLI_RUNGS = (("context", "--d", "241"),)  # 2 s today


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def subcommand(args: tuple[str, ...]) -> str:
    i = 0
    while args[i].startswith("--"):
        i += 1 if args[i] == "--ascii" else 2
    return args[i]


def _opt(args, flag):
    return args[args.index(flag) + 1]


def check_cli(args: tuple[str, ...], returncode: int, out: bytes) -> list[str]:
    """Parse the child's output and check its equations exactly."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    sub = subcommand(args)
    if sub == "table":
        with open(REFERENCE_TABLE, "rb") as fh:
            return [] if out == fh.read() else ["table differs from reference_table.csv"]
    if sub == "figure":
        text = out.decode()
        ok = (text.startswith("<?xml") and text.endswith("</svg>\n")
              and "c+ = 9/7" in text and "c- = -7/9" in text)
        return [] if ok else ["figure is not the SVG of 3/4, 12/5 and 9/7, -7/9"]
    doc = json.loads(out)
    d = int(_opt(args, "--d")) if "--d" in args else None
    problems: list[str] = []
    if sub == "context":
        problems += unit_problems(d, doc["eps"]["f1"], doc["eps"]["g1"], Fraction(doc["eta"]["a"]),
                                  Fraction(doc["eta"]["b"]), doc["norm_eta"])
        if doc["d"] != d:
            problems.append(f"context for d={doc['d']}, not {d}")
    elif sub == "xi":
        p = int(_opt(args, "--p"))
        if not doc["in_s"]:
            problems.append(f"{p} is a split prime of {d}, yet in_s is false")
        else:
            problems += xi_problems(d, p, doc["l"], doc["x"], doc["y"], int(doc["norm"]))
    elif sub == "spectrum":
        if not doc:
            problems.append("empty spectrum")
        for e in doc:
            problems += xi_problems(d, e["p"], e["l"], e["x"], e["y"], int(e["norm"]))
    elif sub == "solve":
        z = int(_opt(args, "--z"))
        if not doc["exists"] or not doc["solutions"]:
            problems.append(f"no solutions for z={z}")
        for s in doc["solutions"]:
            x, y = s["x"], s["y"]
            if s["norm"] != x * x - d * y * y or abs(s["norm"]) != z or gcd(x, d * y) != 1:
                problems.append(f"({x}, {y}) is not a strictly primitive solution")
    elif sub == "decompose":
        from pellbisect import QuadElem, solver

        r = doc["representation"]
        rep = solver.Representation(
            d=r["d"], sign=r["sign"], m=r["m"], n=r["n"],
            core=solver.CoreFactor(**r["core"]) if r["core"] else None,
            terms=tuple(solver.XiPower(**t) for t in r["terms"]), scale=Fraction(r["scale"]))
        x, y = int(_opt(args, "--x")), int(_opt(args, "--y"))
        if solver.evaluate_representation(rep) != QuadElem.from_int_pair(d, x, y):
            problems.append("representation does not evaluate to the input")
    elif sub == "rational":
        sign = int(_opt(args, "--sign"))
        if not doc:
            problems.append("no rational points")
        for pt in doc:
            x, y = Fraction(pt["x"]), Fraction(pt["y"])
            if pt["r"] != (sign == -1) or x * x - d * y * y != sign:
                problems.append(f"({x}, {y}) is off x^2-{d}y^2 = {sign}")
    elif sub == "bisect":
        a, b = Fraction(_opt(args, "--a")), Fraction(_opt(args, "--b"))
        cp, cm = Fraction(doc["c_plus"]), Fraction(doc["c_minus"])
        problems += check_bisect(a, b, None, (cp, cm))
        ra = (a * a + 1) / doc["d"]
        if not (isqrt(ra.numerator) ** 2 == ra.numerator and isqrt(ra.denominator) ** 2 == ra.denominator):
            problems.append(f"(a^2+1)/{doc['d']} is not a rational square")
        if (doc["case"] == "I") != (doc["d"] == 1):
            problems.append("case I iff d = 1")
    elif sub == "triples":
        if not doc:
            problems.append("no triples")
        for t in doc:
            if not star_holds(Fraction(t["a"]), Fraction(t["b"]), Fraction(t["c"])):
                problems.append(f"({t['a']}, {t['b']}, {t['c']}) is not a bisector triple")
    elif sub == "oracle":
        z = int(_opt(args, "--z"))
        if not doc:
            problems.append("oracle found nothing")
        for h in doc:
            x, y = h["x"], h["y"]
            if x * x - d * y * y != h["sign"] * z or h["strict"] != (gcd(x, d * y) == 1):
                problems.append(f"oracle hit ({x}, {y}) is wrong")
    return problems


class Cli(Workload):
    """The README commands, one `python -m pellbisect` child at a time."""

    name = "cli"
    rung_names = ("rung.cli_context_241",)
    in_process = False  # children are capped by the subprocess timeout

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def setup(self) -> None:
        if not os.path.isfile(REFERENCE_TABLE):
            raise FileNotFoundError(REFERENCE_TABLE)

    def op(self, args: tuple[str, ...], rung: str | None = None) -> Op:
        def run(tr):
            with tr.span("cli." + subcommand(args)):
                try:
                    proc = subprocess.run([sys.executable, "-m", "pellbisect", *args],
                                          cwd=ROOT, env=child_env(), capture_output=True,
                                          timeout=self.cap)
                except subprocess.TimeoutExpired:
                    raise Capped from None
            return proc.returncode, proc.stdout

        return Op("pellbisect " + " ".join(args), run,
                  lambda ans: check_cli(args, *ans), rung=rung)

    def rounds(self) -> Iterator[list[Op]]:
        while True:
            script = list(CLI_SCRIPT)
            self.rng.shuffle(script)
            yield [self.op(args) for args in script]

    def rungs(self) -> list[Op]:
        return [self.op(args, rung=rung) for args, rung in zip(CLI_RUNGS, self.rung_names)]


WORKLOADS = {w.name: w for w in (Fields, Solve, Bisect, Cli)}
