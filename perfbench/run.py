"""Closed-loop benchmark of pellbisect, one client, exact checks on every op.

    python3 perfbench/run.py --workload fields|solve|bisect|cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Rounds of ops run until their summed op time reaches --seconds.
Each op runs under the workload's wall-clock cap; a capped op counts as
failed and as taking its cap.  A traced run then runs the slow ROADMAP
rungs once each under the same cap and reports each rung's capped count
as a per-layer metric; a rung that finishes is checked like any op.  The
last line of stdout is one JSON object: with --trace 0 it holds the
end-to-end metrics, with --trace 1 the per-layer ones, measured from spans
kept in memory and written to perfbench/traces/ when the run ends.

Times are reported at reference CPU speed.  On a shared machine the speed
of the CPU drifts by tens of percent within seconds, so a calibration
kernel runs between ops every CAL_INTERVAL seconds and each op's wall time
is scaled by CAL_REF over the kernel's time around it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 5
CAL_INTERVAL = 0.02
CAL_REF = 0.001  # seconds the kernel takes at reference speed

# Layer spans; every traced run reports all of them, zero where unused.
SPANS = (
    "pellcore.make_context", "spectrum.spectrum",
    "solver.strict_exists", "solver.generate_strict", "solver.decompose_strict",
    "solver.evaluate_representation",
    "rationalpell.generate_rational", "rationalpell.decompose_rational",
    "bisector.bisect",
    "cli.import", "cli.context", "cli.xi", "cli.spectrum", "cli.solve", "cli.decompose",
    "cli.rational", "cli.bisect", "cli.triples", "cli.table", "cli.figure", "cli.oracle",
)


def kernel():
    """Fraction, big-int square-root and small-modulus work, the program's
    three kinds of inner loop, in a fixed amount."""
    acc, n, s = Fraction(0), 10**30 + 7, 0
    for i in range(1, 100):
        acc += Fraction(i, i + 1) * Fraction(3, 7)
        n = isqrt(n * n + i) + 1
        for f in range(3, 40, 2):
            s += n % f
    return acc, n, s


def kernel_time() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Speed:
    """Kernel times taken through the run, each op tied to the latest one."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.next_at = 0.0

    def tick(self) -> int:
        now = time.perf_counter()
        if now >= self.next_at:
            self.samples.append(kernel_time())
            self.next_at = time.perf_counter() + CAL_INTERVAL
        return len(self.samples) - 1

    def factor(self, i: int) -> float:
        """CAL_REF over the median of sample i and its two neighbours."""
        return CAL_REF / statistics.median(self.samples[max(i - 1, 0):i + 2])


@dataclass(slots=True)
class Record:
    label: str
    raw: float  # wall seconds, or the cap
    capped: bool
    failed: bool
    traced: bool
    rung: str | None
    problems: list[str]
    cal: int  # the kernel sample taken just before the op
    latency: float  # at reference speed; the cap itself when capped


def _on_alarm(signum, frame):
    raise Capped


def execute(op, cap: float, tracer, in_process: bool, cal: int = 0) -> Record:
    """Run one op under its cap, then check its answer outside the clock."""
    tracer.begin_op(cal)
    answer, capped, problems = None, False, []
    # every op starts with an empty young generation, so it pays for the
    # collections its own allocations trigger and not for its predecessor's
    gc.collect(0)
    try:
        try:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, cap)
            t0 = time.perf_counter()
            answer = op.run(tracer)
        finally:
            raw = time.perf_counter() - t0
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Capped:
        capped = True
    except Exception as exc:  # the program raised where the op expects an answer
        problems = [f"raised {type(exc).__name__}: {exc}"]
    if capped:
        raw = cap
    elif not problems:
        problems = op.check(answer)
    return Record(op.label, raw, capped, capped or bool(problems), tracer.enabled, op.rung,
                  problems, cal, raw)


def measure(workload, seconds: float, tracer_for, speed: Speed, hits,
            rungs: bool) -> list[Record]:
    """Ops until the op clock passes `seconds`, then the rungs if asked."""
    records: list[Record] = []
    clock = 0.0
    for i, ops in enumerate(workload.rounds()):
        tracer = tracer_for(i)
        hits.add()
        workload.start_round()
        hits.mark()
        # the benchmark's own records stay out of the program's collections
        gc.freeze()
        for op in ops:
            cal = speed.tick()
            rec = execute(op, workload.cap, tracer, workload.in_process, cal)
            clock += rec.raw if rec.capped else rec.raw * speed.factor(cal)
            records.append(rec)
            if clock >= seconds:
                break
        if clock >= seconds:
            break
    tracer = tracer_for(0)
    for op in workload.rungs() if rungs else ():
        records.append(execute(op, workload.cap, tracer, workload.in_process, speed.tick()))
    for rec in records:
        # a cap is a fixed cost in wall seconds, not a measurement to scale
        rec.latency = rec.raw if rec.capped else rec.raw * speed.factor(rec.cal)
    return records


def failures(records: list[Record]) -> int:
    """Ops that failed.  A capped rung is a known slow case, counted by its
    rung.*.capped metric instead; a rung that finishes with a wrong answer
    fails like any op."""
    return sum(r.failed and not (r.rung and r.capped) for r in records)


def setup_probe(name: str) -> None:
    """Child mode: time import plus the workload's warm-up, then the kernel."""
    t0 = time.perf_counter()
    import pellbisect  # noqa: F401

    WORKLOADS[name](0).setup()
    elapsed = time.perf_counter() - t0
    print(elapsed, statistics.median(kernel_time() for _ in range(3)))


def setup_times(name: str, tracer, speed: Speed) -> list[float]:
    """Import plus warm-up, SETUP_PROBES times, each in a fresh child."""
    env = child_env()
    out = []
    for _ in range(SETUP_PROBES):
        if name == "cli":
            # what every CLI call pays before its subcommand runs
            cal = speed.tick()
            tracer.begin_op(cal)
            with tracer.span("cli.import"):
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", "import pellbisect"],
                               cwd=ROOT, env=env, check=True, timeout=60)
                raw = time.perf_counter() - t0
            out.append(raw * speed.factor(cal))
        else:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-setup", name],
                                  cwd=ROOT, env=env, check=True, timeout=120,
                                  capture_output=True, text=True)
            raw, kern = map(float, proc.stdout.split()[-2:])
            out.append(raw * CAL_REF / kern)
    return out


def end_to_end(records: list[Record], setups: list[float], cli: bool) -> dict:
    lat = [r.latency for r in records]
    q = statistics.quantiles(lat, n=10)
    verified = sum(1 for r in records if not r.failed)
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return {
        "ops_per_s": (verified / sum(lat), "1/s"),
        "latency_p50_ms": (q[4] * 1e3, "ms"),
        "latency_p90_ms": (q[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, records: list[Record], tracer, speed: Speed, hits) -> dict:
    out = tracer.summary(SPANS, speed.factor)
    for rung in (name for w in WORKLOADS.values() for name in w.rung_names):
        out[f"{rung}.capped"] = (sum(1 for r in records if r.rung == rung and r.capped), "count")
    st = getattr(workload, "stats", {})
    solve = workload.name == "solve" and st["ops"]
    out["solver.exists_ratio"] = (st["exists"] / st["ops"] if solve else 0.0, "ratio")
    out["solver.solutions_per_op"] = (st["solutions"] / st["ops"] if solve else 0.0, "count")
    out["solver.repeat_share"] = (st["repeats"] / len(records) if solve else 0.0, "ratio")
    bis = workload.name == "bisect" and st["ops"]
    out["bisector.rational_ratio"] = (st["rational"] / st["ops"] if bis else 0.0, "ratio")
    h, m = hits.hits, hits.misses
    hit_ratio = h / (h + m) if workload.in_process and h + m else 0.0
    out["pellcore.make_context.hit_ratio"] = (hit_ratio, "ratio")

    def rate(traced):
        rs = [r for r in records if r.traced == traced and r.rung is None]
        t = sum(r.latency for r in rs)
        return sum(1 for r in rs if not r.failed) / t if t else 0.0

    untraced = rate(False)
    out["trace.overhead_frac"] = (1 - rate(True) / untraced if untraced else 0.0, "ratio")
    return out


class HitCounter:
    """make_context cache hits and misses summed over rounds, since the
    fields workload empties the cache (and its counters) between rounds."""

    def __init__(self, make_context):
        self.info = getattr(make_context, "cache_info", None)
        self.hits = self.misses = 0
        self.last = (0, 0)

    def mark(self):
        if self.info:
            i = self.info()
            self.last = (i.hits, i.misses)

    def add(self):
        if self.info:
            i = self.info()
            self.hits += i.hits - self.last[0]
            self.misses += i.misses - self.last[1]


def src_loc() -> int:
    pkg = os.path.join(SRC, "pellbisect")
    total = 0
    for fn in sorted(os.listdir(pkg)):
        if fn.endswith(".py"):
            with open(os.path.join(pkg, fn), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "pellbisect", "__init__.py")):
        print(f"no pellbisect sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.probe_setup:
        setup_probe(args.probe_setup)
        return 0
    if not args.workload:
        ap.error("--workload is required")

    import pellbisect

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    speed = Speed()
    setups = setup_times(workload.name, tracer, speed)
    workload.setup()
    signal.signal(signal.SIGALRM, _on_alarm)
    hits = HitCounter(pellbisect.make_context)
    hits.mark()
    null = NullTracer()
    # a traced run alternates traced and untraced rounds, so the two op
    # rates come from the same mix; the rungs run only in a traced run,
    # always traced
    records = measure(workload, args.seconds,
                      lambda i: tracer if args.trace and i % 2 == 0 else null, speed, hits,
                      rungs=bool(args.trace))
    hits.add()

    bad = [r for r in records if r.problems]
    for r in bad[:20]:
        print(f"check failed: {r.label}:", "; ".join(r.problems), file=sys.stderr)
    for r in records:
        if r.rung and r.capped:
            print(f"capped at {workload.cap} s: {r.label} ({r.rung})", file=sys.stderr)
    if args.trace:
        metrics = per_layer(workload, records, tracer, speed, hits)
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write(os.path.join(HERE, "traces", f"{workload.name}-seed{args.seed}.jsonl"))
    else:
        metrics = end_to_end(records, setups, workload.name == "cli")
    print(json.dumps({"workload": workload.name, "seed": args.seed,
                      "python": sys.version.split()[0], "src_loc": src_loc(),
                      "kernel_ms": statistics.median(speed.samples) * 1e3}))
    print(json.dumps({
        "correct": not bad,
        "attempted": len(records),
        "failed": failures(records),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


sys.path.insert(0, HERE)
from spans import Capped, NullTracer, Tracer  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, child_env  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
