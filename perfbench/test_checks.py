"""Self-check of the benchmark's checkers: a corrupted answer in any
workload must count as a failed op, and a genuine one must not.

    python3 -m unittest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Capped, NullTracer  # noqa: E402


def outcome(op, answer):
    """Feed `answer` through the runner's accounting as if `op` returned it."""
    return run.execute(dataclasses.replace(op, run=lambda tr: answer), 1.0, NullTracer(), False)


class CorruptedAnswers(unittest.TestCase):
    def assert_counts(self, op, genuine, corrupted):
        good = outcome(op, genuine)
        self.assertFalse(good.failed, good.problems)
        bad = outcome(op, corrupted)
        self.assertTrue(bad.failed)
        self.assertFalse(bad.capped)
        self.assertTrue(bad.problems)

    def test_fields(self):
        op = workloads.Fields(0).op(34, workloads.PMAX)
        ctx, spec = op.run(NullTracer())
        wrong_unit = dataclasses.replace(ctx, eps=ctx.eps + 1)
        self.assert_counts(op, (ctx, spec), (wrong_unit, spec))
        missing_prime = dataclasses.replace(spec, entries=spec.entries[1:])
        self.assert_counts(op, (ctx, spec), (ctx, missing_prime))

    def test_solve(self):
        w = workloads.Solve(0)
        w.setup()
        op = w.op(34, 9, workloads.PMAX, True)
        ans = op.run(NullTracer())
        self.assertTrue(ans["exists"])
        (x, y), *rest = ans["solutions"]
        self.assert_counts(op, ans, dict(ans, solutions=[(x + 2, y), *rest]))
        self.assert_counts(op, ans, dict(ans, exists=False, solutions=[], evaluated=[]))

    def test_bisect(self):
        op = workloads.Bisect(0).op("case1", Fraction(3, 4), Fraction(12, 5),
                                    {Fraction(9, 7), Fraction(-7, 9)})
        genuine = op.run(NullTracer())
        self.assert_counts(op, genuine, (Fraction(9, 7), Fraction(-7, 8)))
        self.assert_counts(op, genuine, None)

    def test_cli(self):
        cli = workloads.Cli(0)
        op = cli.op(("--format", "csv", "--ascii", "table"))
        rc, out = op.run(NullTracer())
        self.assert_counts(op, (rc, out), (rc, out.replace(b"35+6*sqrt(34)", b"35+7*sqrt(34)")))
        op = cli.op(("xi", "--d", "34", "--p", "11"))
        rc, out = op.run(NullTracer())
        self.assert_counts(op, (rc, out), (rc, out.replace(b'"y": 5', b'"y": 6')))

    def test_capped_op_fails_at_its_cap(self):
        def stuck(tr):
            raise Capped

        op = workloads.Op("stuck", stuck, lambda ans: [])
        rec = run.execute(op, 0.5, NullTracer(), False)
        self.assertTrue(rec.failed and rec.capped)
        self.assertEqual(rec.latency, 0.5)

    def test_capped_rung_is_counted_apart(self):
        def stuck(tr):
            raise Capped

        loop = workloads.Op("stuck", stuck, lambda ans: [])
        rung = dataclasses.replace(loop, rung="rung.stuck")
        wrong_rung = workloads.Op("wrong", lambda tr: None, lambda ans: ["wrong"], "rung.wrong")
        recs = [run.execute(op, 0.5, NullTracer(), False) for op in (loop, rung, wrong_rung)]
        self.assertEqual(run.failures(recs), 2)
        self.assertEqual(run.failures(recs[1:2]), 0)


if __name__ == "__main__":
    unittest.main()
