"""In-memory spans for the traced benchmark run.

A span records one call into a layer, made from the benchmark's own code:
its name, start, end, the span that caused it and the op it belongs to.
Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
from contextlib import nullcontext
from time import perf_counter


class Capped(BaseException):
    """Raised into an op when its wall-clock cap expires.

    A BaseException, so that no `except Exception` in the program under
    test can swallow it.
    """


class NullTracer:
    """Tracing off: spans cost one method call and record nothing."""

    enabled = False
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def begin_op(self, cal: int) -> None:
        pass


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        stack = tracer.stack
        # [name, start, end, parent, op, capped]
        self.rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, False]

    def __enter__(self):
        tracer = self.tracer
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(self.rec)
        self.rec[1] = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.rec[2] = perf_counter()
        self.rec[5] = exc_type is Capped
        self.tracer.stack.pop()
        return False


class Tracer:
    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.op_cal: list[int] = []  # calibration sample of each op

    def begin_op(self, cal: int) -> None:
        self.op += 1
        self.op_cal.append(cal)

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def summary(self, names, factor) -> dict[str, tuple[float, str]]:
        """calls, busy (self) seconds, p90 duration and capped count per
        name.  Durations are scaled by factor(calibration sample of the op);
        self time is a span's duration minus its children's."""
        durs_all = [(end - start) * factor(self.op_cal[op])
                    for _, start, end, _, op, _ in self.spans]
        self_t = durs_all[:]
        for i, rec in enumerate(self.spans):
            if rec[3] >= 0:
                self_t[rec[3]] -= durs_all[i]
        by_name: dict[str, list[int]] = {}
        for i, rec in enumerate(self.spans):
            by_name.setdefault(rec[0], []).append(i)
        out = {}
        for name in names:
            idx = by_name.get(name, [])
            durs = [durs_all[i] for i in idx]
            out[f"{name}.calls"] = (len(idx), "count")
            out[f"{name}.busy_s"] = (sum(self_t[i] for i in idx), "s")
            out[f"{name}.p90_us"] = (p90(durs) * 1e6, "us")
            out[f"{name}.capped"] = (sum(1 for i in idx if self.spans[i][5]), "count")
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, capped) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "capped": capped}) + "\n")


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]
