"""Golden canonical representations: which solutions generate_strict finds and
exactly how decompose_strict writes each of them.

For every square-free d < 40 and 2 <= z < 100 the file
``tests/data/representation_golden.json`` holds, one compact line per
solution of ``generate_strict(range(-1, 2))``, the solution and its
``decompose_strict`` result: sign, m, n, the xi terms with their conjugate
flags and the core with its conjugate flag.  Round trips alone cannot see a
change in which conjugate or which window element decompose picks; this
file can.  After a change that is meant to alter the canonical form, rewrite
it with ``PYTHONPATH=src python tests/test_representation_golden.py`` and
say so in CHANGES.md.
"""

import json
from dataclasses import astuple
from pathlib import Path

import pytest

from pellbisect.arith import is_squarefree
from pellbisect.pellcore import make_context
from pellbisect.solver import decompose_strict, generate_strict, strict_exists
from pellbisect.spectrum import spectrum

GOLDEN = Path(__file__).parent / "data" / "representation_golden.json"

D_VALUES = tuple(d for d in range(2, 40) if is_squarefree(d))
Z_RANGE = range(2, 100)


def record_d(d: int) -> list[list]:
    """One record per solution, in (z, y, x) order:
    [d, z, x, y, sign, m, n, [[p, exp, conj], ...], [modulus, x, y, conj] or null]."""
    ctx = make_context(d)
    spec = spectrum(ctx, Z_RANGE.stop)
    records = []
    for z in Z_RANGE:
        if not strict_exists(ctx, spec, z).exists:
            continue
        for x, y in generate_strict(ctx, spec, z, range(-1, 2)):
            rep = decompose_strict(ctx, spec, x, y)
            terms = [list(astuple(t)) for t in rep.terms]
            core = None if rep.core is None else list(astuple(rep.core))
            records.append([d, z, x, y, rep.sign, rep.m, rep.n, terms, core])
    return records


def _recorded() -> dict[int, list[list]]:
    by_d: dict[int, list[list]] = {d: [] for d in D_VALUES}
    for rec in json.loads(GOLDEN.read_text(encoding="utf-8")):
        by_d[rec[0]].append(rec)
    return by_d


@pytest.fixture(scope="module")
def recorded():
    return _recorded()


@pytest.mark.parametrize("d", D_VALUES)
def test_representations_are_golden(d, recorded):
    assert record_d(d) == recorded[d]


if __name__ == "__main__":
    lines = [json.dumps(r, separators=(",", ":")) for d in D_VALUES for r in record_d(d)]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
