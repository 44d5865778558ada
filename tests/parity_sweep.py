"""One hash over the labels of a fixed sweep, to show that a change to the solver keeps its outputs.

Run it from the repository root against any source tree, and compare the last line between two trees:

    for src in ../parent/src src; do PYTHONPATH=$src python tests/parity_sweep.py; done

tests/data/parity_sweep.sha256 holds the hash of the current labels, and CI's parity job compares the last
line with it; a change that relabels on purpose records the new hash there.

It prints the row count and the SHA-256 of the rows, one line per row, where a row is the repr of an
answer or the type and message of the ValueError raised instead.  The rows are:

- for each square-free d < 200, every candidate of rationalpell._family over the primes up to 31, with
  at most 2 terms and n in -3..3: the candidate, its generate_rational point and that point's
  decompose_rational label (78 330 rows);
- for each of the 26 490 solutions (x, y, label) that solve gives for square-free d < 60, 2 <= z < 600
  and n in -1..1: solve's label, decompose_strict of (x, y), decompose_strict of (3x, 3y) (never strictly
  primitive, so always a ValueError), decompose of (3x, 3y) and validate_representation of the label
  (5 rows each, 132 450 rows).

It runs in well under a minute.  The file is no test module, so pytest never collects it.
"""

import hashlib
import sys

from pellbisect.arith import is_squarefree
from pellbisect.pellcore import Spectrum, make_context, spectrum
from pellbisect.rationalpell import _family, decompose_rational, generate_rational
from pellbisect.solver import decompose, decompose_strict, solve, validate_representation


def _row(fn, *args):
    try:
        return repr(fn(*args))
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


def rows():
    for d in range(2, 200):
        if not is_squarefree(d):
            continue
        ctx = make_context(d)
        spec = spectrum(ctx, 31)
        for rep in _family(ctx, spec.primes, 2, range(-3, 4)):
            pt = generate_rational(ctx, spec, rep)
            yield f"{rep!r} {pt!r} {_row(decompose_rational, ctx, spec, pt)}"
    for d in range(2, 60):
        if not is_squarefree(d):
            continue
        ctx = make_context(d)
        spec = Spectrum(d, 599, ())  # bounds z's primes; the solver reads each xi_p from its memo
        for z in range(2, 600):
            for x, y, rep in solve(ctx, z, range(-1, 2))[1]:
                yield repr(rep)
                yield _row(decompose_strict, ctx, spec, x, y)
                yield _row(decompose_strict, ctx, spec, 3 * x, 3 * y)
                yield _row(decompose, ctx, 3 * x, 3 * y)
                yield repr(validate_representation(rep))


def main():
    digest, count = hashlib.sha256(), 0
    for row in rows():
        digest.update(row.encode() + b"\n")
        count += 1
    print(f"{count} rows")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
