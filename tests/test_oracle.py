from fractions import Fraction as F

import pytest

from pellbisect.oracle import (
    SearchBox,
    brute_rational_pell,
    brute_solutions,
    brute_xi,
    tangent_bisector_check,
)


def test_brute_solutions_34_9():
    hits = {(h.x, h.y, h.sign) for h in brute_solutions(34, 9, SearchBox(100))}
    assert (5, 1, -1) in hits
    assert (379, 65, -1) in hits


def test_brute_solutions_unit_modulus():
    hits = [(h.x, h.y, h.sign) for h in brute_solutions(2, 1, SearchBox(5))]
    assert hits == [(1, 0, 1), (1, 1, -1), (3, 2, 1), (7, 5, -1)]


def test_brute_solutions_5_8_empty():
    assert brute_solutions(5, 8, SearchBox(50)) == []


def test_brute_xi():
    assert brute_xi(17, 2, 3, SearchBox(200)) == (3, 5, 1, 1)
    assert brute_xi(2, 3, 6, SearchBox(200)) is None
    assert brute_xi(34, 5, 2, SearchBox(200)) == (2, 3, 1, -1)


def test_brute_rational_pell():
    pts = brute_rational_pell(34, 1, SearchBox(y_bound=50, denominator_bound=3))
    assert (F(5, 3), F(1, 3)) in pts
    pts = brute_rational_pell(2, 1, SearchBox(y_bound=5, denominator_bound=1))
    assert (F(1), F(1)) in pts
    assert brute_rational_pell(3, 1, SearchBox(y_bound=60, denominator_bound=20)) == []


def test_box_growth_only_adds_results():
    small = brute_solutions(10, 39, SearchBox(50))
    large = brute_solutions(10, 39, SearchBox(150))
    assert set(small) <= set(large)


def test_box_validation():
    with pytest.raises(ValueError):
        SearchBox(0)
    with pytest.raises(ValueError, match="z must be >= 1"):
        brute_solutions(2, 0, SearchBox(10))
    with pytest.raises(ValueError, match="r must be 0 or 1"):
        brute_rational_pell(2, 2, SearchBox(10))


def test_tangent_bisector_check():
    assert tangent_bisector_check(F(3, 4), F(12, 5), F(9, 7)) is True
    assert tangent_bisector_check(F(1), F(7), F(2)) is True
    assert tangent_bisector_check(F(1), F(7), F(-1, 2)) is True
    assert tangent_bisector_check(F(1), F(7), F(3)) is False
    # c = -1 leaves the first branch's guard at 0, so only the perpendicular 1 decides
    assert tangent_bisector_check(F(1), F(1), F(-1)) is True


def test_tangent_check_indeterminate():
    # both guards vanish: c = -1/a and -1/c = b has no defined branch
    assert tangent_bisector_check(F(2), F(-1, 2), F(-1, 2)) is None
