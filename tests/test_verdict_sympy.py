"""strict_exists against a second oracle: sympy's ``diop_DN``, on the whole grid of
square-free d < 100 and 2 <= z < 400, p = 2 included.

``tests/data/verdict_sympy.json`` holds the grid bounds and its solvable cells, recorded
by ``tests/record_verdict_sympy.py`` from sympy alone.  Every cell is checked, each
against a Spectrum built by hand that bounds z's primes and holds no entries.  A seeded
sample of cells is derived again from sympy, so the file stays tied to its source.
"""

import json
import random

import pytest
from record_verdict_sympy import D_BELOW, D_VALUES, DATA, Z_BELOW, Z_FROM, sympy_solvable

from pellbisect.pellcore import Spectrum, make_context
from pellbisect.solver import strict_exists

GRID = json.loads(DATA.read_text(encoding="utf-8"))
SOLVABLE = {tuple(cell) for cell in GRID["solvable"]}


def test_the_file_holds_the_grid_it_names():
    assert (GRID["d_below"], GRID["z_from"], GRID["z_below"]) == (D_BELOW, Z_FROM, Z_BELOW)
    cells = [tuple(cell) for cell in GRID["solvable"]]
    assert cells == sorted(SOLVABLE) and len(cells) == 3484
    assert all(d in D_VALUES and Z_FROM <= z < Z_BELOW for d, z in cells)


@pytest.mark.parametrize("d", D_VALUES)
def test_strict_exists_matches_sympy(d):
    ctx, spec = make_context(d), Spectrum(d, Z_BELOW, ())
    wrong = [z for z in range(Z_FROM, Z_BELOW) if strict_exists(ctx, spec, z).exists != ((d, z) in SOLVABLE)]
    assert not wrong, (d, wrong)


def test_seeded_cells_rederive_from_sympy():
    cells = [(d, z) for d in D_VALUES for z in range(Z_FROM, Z_BELOW)]
    for d, z in random.Random(5).sample(cells, 50):
        assert sympy_solvable(d, z) == ((d, z) in SOLVABLE), (d, z)
