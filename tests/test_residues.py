"""Euler traces, the Jacobi sum and interpolation over a finite point set.

The oracles are written into the tests: sums over the roots of split
polynomials, and Jacobians computed by hand.
"""

from fractions import Fraction

import pytest

from kronecker.errors import DomainError
from kronecker.polyring import UniPoly, parse_poly, parse_polys
from kronecker.residues import PointSet, euler_trace, interpolate_zero_dim, jacobi_sum


def _roots_sum(roots, i):
    """Sum of r^i / f'(r) over the roots of the monic f = prod (x - r)."""
    total = Fraction(0)
    for r in roots:
        d = Fraction(1)
        for s in roots:
            if s != r:
                d *= r - s
        total += Fraction(r) ** i / d
    return total


@pytest.mark.parametrize(
    "text",
    ["x^2 + 1", "x^3 - 2*x + 7", "3*x^4 - x + 5", "x^5 - x - 1", "1/2*x^3 + x^2 - 7/3"],
)
def test_euler_trace_is_zero_below_m_minus_1_and_one_at_it(text):
    f = UniPoly.from_multipoly(parse_poly(text))
    m = f.degree
    for i in range(m - 1):
        assert euler_trace(f, i) == 0
    assert euler_trace(f, m - 1) == 1


@pytest.mark.parametrize("roots", [[1, -2, 3], [Fraction(1, 2), 0, -5, 4], [2, 7]])
def test_euler_trace_matches_a_sum_over_the_roots(roots):
    f = UniPoly("x", [1])
    for r in roots:
        f = f * UniPoly("x", [-r, 1])
    for i in range(len(roots) + 3):
        assert euler_trace(f * 3, i) == _roots_sum(roots, i)


def test_euler_trace_rejects_a_repeated_root():
    with pytest.raises(DomainError):
        euler_trace(parse_poly("(x - 1)^2*(x + 2)"), 0)


def _grid():
    return PointSet(parse_polys(["x^2 - 1", "y^2 - 4"]), [(a, b) for a in (1, -1) for b in (2, -2)])


# the zeros of (2*x + 1)*(3*x - 2) and 5*y - 3
_NON_INTEGER_GRID = [(Fraction(-1, 2), Fraction(3, 5)), (Fraction(2, 3), Fraction(3, 5))]


def test_product_grid_passes_on_a_rational_grid():
    assert _grid().check_product_grid() is True
    system = parse_polys(["2*x^2 - 3*x + 1", "y^3 - y"])
    points = [(a, b) for a in (1, Fraction(1, 2)) for b in (0, 1, -1)]
    assert PointSet(system, points).check_product_grid() is True
    assert PointSet(parse_polys(["6*x^2 - x - 2", "5*y - 3"]), _NON_INTEGER_GRID).check_product_grid() is True


def test_product_grid_raises_on_an_irrational_factor():
    ps = PointSet(parse_polys(["x^3 - 2*x", "y - 1"]), [(0, 1)])
    with pytest.raises(DomainError, match="irrational"):
        ps.check_product_grid()


def test_product_grid_raises_on_an_incomplete_point_set():
    ps = PointSet(parse_polys(["x^2 - 1", "y^2 - 4"]), [(1, 2), (-1, 2), (1, -2)])
    with pytest.raises(DomainError, match="incomplete"):
        ps.check_product_grid()
    ps = PointSet(parse_polys(["6*x^2 - x - 2", "5*y - 3"]), _NON_INTEGER_GRID[1:])
    with pytest.raises(DomainError, match="incomplete"):
        ps.check_product_grid()


def test_product_grid_raises_on_a_repeated_root():
    # the double root 1 carries no simple zero, so no point set exhausts
    # the grid, whether or not the points are as many as the degrees allow
    system = parse_polys(["(x - 1)^2*(x + 2)", "y - 1"])
    with pytest.raises(DomainError, match="incomplete"):
        PointSet(system, [(-2, 1)]).check_product_grid()
    with pytest.raises(DomainError):
        PointSet(system, [(-2, 1)] * 3).check_product_grid()
    with pytest.raises(DomainError):
        PointSet(system, [(1, 1)])  # not a simple zero


def test_a_point_needs_one_coordinate_per_variable():
    # a coordinate too many was dropped, and one too few was a KeyError
    one = parse_polys(["x - 1"])
    two = parse_polys(["x^2 - 1", "y"])
    for system, point in ((one, (1, 2)), (two, (1,)), (two, {"x": 1}), (two, {"x": 1, "z": 0})):
        with pytest.raises(DomainError, match="one coordinate per variable: "):
            PointSet(system, [point])
    assert PointSet(two, [{"y": 0, "x": -1}]).points == [{"x": -1, "y": 0}]


def test_product_grid_raises_on_a_duplicated_point():
    points = [(1, 2), (-1, 2), (1, -2), (-1, -2)]
    system = parse_polys(["x^2 - 1", "y^2 - 4"])
    with pytest.raises(DomainError):
        PointSet(system, points[:3] + [(1, 2)]).check_product_grid()
    with pytest.raises(DomainError, match="incomplete"):
        PointSet(system, points + [(1, 2)]).check_product_grid()


def test_product_grid_is_undecided_off_a_grid():
    ps = PointSet(parse_polys(["x^2 + y^2 - 5", "x - y + 1"]), [(1, 2), (-2, -1)])
    assert ps.check_product_grid() is None


def test_point_set_rejects_a_non_solution():
    with pytest.raises(DomainError):
        PointSet(parse_polys(["x^2 - 1", "y^2 - 4"]), [(1, 1)])


def test_jacobi_sum_vanishes_below_the_jacobian_degree():
    ps = _grid()
    for text in ["1", "x", "y", "3*x + 5*y - 7"]:
        assert jacobi_sum(ps, parse_poly(text)) == 0
    # deg F = deg J: J = 4xy, so the sum of xy/J over four points is 1
    assert jacobi_sum(ps, parse_poly("x*y")) == 1


def test_jacobi_sum_vanishes_off_a_grid():
    ps = PointSet(parse_polys(["x^2 + y^2 - 5", "x - y + 1"]), [(1, 2), (-2, -1)])
    # J = det [[2x, 2y], [1, -1]] = -2x - 2y: -6 and 6 at the two points
    assert [ps.jacobian.eval_at(p) for p in ps.points] == [-6, 6]
    assert jacobi_sum(ps, parse_poly("1")) == 0


@pytest.mark.parametrize(
    "system, points, values",
    [
        (["x^2 - 1", "y^2 - 4"], [(1, 2), (1, -2), (-1, 2), (-1, -2)], [3, Fraction(-1, 2), 0, 7]),
        (["x^2 + y^2 - 5", "x - y + 1"], [(1, 2), (-2, -1)], [Fraction(5, 3), -4]),
        (["x^3 - x", "y - 2*x"], [(0, 0), (1, 2), (-1, -2)], [1, 1, 1]),
    ],
)
def test_interpolation_reproduces_its_values(system, points, values):
    ps = PointSet(parse_polys(system), points)
    f = interpolate_zero_dim(ps, values)
    for pt, v in zip(ps.points, values):
        assert f.eval_at(pt) == v


def test_interpolation_needs_one_value_per_point():
    with pytest.raises(DomainError):
        interpolate_zero_dim(_grid(), [1, 2])
