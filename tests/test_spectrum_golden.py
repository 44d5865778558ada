"""Golden prime spectra: every xi_p entry for each square-free d < 90 at
pmax 97, the population of the benchmark's ``fields`` workload.

``tests/data/spectrum_golden.json`` holds one compact line per d:
[d, [[p, l, x, y, norm_sign], ...]] in increasing p.  It pins which primes
are in the spectrum, their levels and their minimal-y elements, however the
search that finds them is organised.  After a change that is meant to alter
one of them, rewrite the file with
``PYTHONPATH=src python tests/test_spectrum_golden.py`` and say so in
CHANGES.md.
"""

import json
from pathlib import Path

from pellbisect.arith import is_squarefree
from pellbisect.pellcore import make_context, spectrum

GOLDEN = Path(__file__).parent / "data" / "spectrum_golden.json"

D_VALUES = tuple(d for d in range(2, 90) if is_squarefree(d))
PMAX = 97


def record(d: int) -> list:
    entries = spectrum(make_context(d), PMAX).entries
    return [d, [[e.p, e.l, e.x, e.y, e.norm_sign] for e in entries]]


def test_every_spectrum_is_golden():
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [row[0] for row in recorded] == list(D_VALUES)
    for row in recorded:
        assert record(row[0]) == row


if __name__ == "__main__":
    lines = [json.dumps(record(d), separators=(",", ":")) for d in D_VALUES]
    GOLDEN.write_text("[\n" + ",\n".join(lines) + "\n]\n", encoding="utf-8")
