"""Golden per-d invariants: every value a context exposes, for each
square-free 1 < d < 1000.

``tests/data/context_golden.json`` holds one compact line per d:
[d, disc, [eta.a, eta.b], f1, g1, norm_eta, eta_in_zd, neg_pell_integral,
neg_pell_rational, h].  It pins the values a context derives from its unit,
whether it stores them or computes them when first read.  After a change
that is meant to alter one of them, rewrite the file with
``PYTHONPATH=src python tests/test_context_golden.py`` and say so in
CHANGES.md.
"""

import json
from pathlib import Path

from pellbisect.arith import is_squarefree
from pellbisect.pellcore import make_context
from pellbisect.quadfield import render_rat

GOLDEN = Path(__file__).parent / "data" / "context_golden.json"

D_VALUES = tuple(d for d in range(2, 1000) if is_squarefree(d))


def record(d: int) -> list:
    ctx = make_context(d)
    return [ctx.d, ctx.disc, [render_rat(ctx.eta.a), render_rat(ctx.eta.b)], ctx.f1, ctx.g1,
            ctx.norm_eta, ctx.eta_in_zd, ctx.neg_pell_integral, ctx.neg_pell_rational, ctx.h]


def test_every_context_is_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [row[0] for row in recorded] == list(D_VALUES)
    for row in recorded:
        assert record(row[0]) == row


if __name__ == "__main__":
    lines = [json.dumps(record(d), separators=(",", ":")) for d in D_VALUES]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
