"""Polynomials over the rationals."""

import pytest

from repcur.poly import Poly, lagrange_interpolant
from repcur.rational import Q


def test_trimming_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (Q(1), Q(2))
    assert Poly([0]).coeffs == () and Poly([0]).is_zero()
    assert Poly([0, 0, 0, 1]).coeffs == (0, 0, 0, 1)
    assert Poly.constant(5)(Q(100)) == Q(5)


def test_evaluation():
    p = Poly([1, -2, 1])  # (t-1)^2
    assert p(Q(1)) == 0
    assert p(Q(3)) == 4
    assert p(Q(1, 2)) == Q(1, 4)


def test_arithmetic():
    p = Poly([0, 1])
    q = Poly([1, 1])
    assert (p * q).coeffs == (Q(0), Q(1), Q(1))
    assert (p + q).coeffs == (Q(1), Q(2))
    assert (p - p).is_zero()
    assert p.scale(Q(1, 3))(Q(3)) == 1


def test_monomials_iterator():
    assert list(Poly([2, 0, 5]).monomials()) == [(0, Q(2)), (2, Q(5))]


def test_lagrange_interpolant():
    pts = [Q(0), Q(1), Q(7, 3)]
    vals = [Q(2), Q(-1), Q(1, 2)]
    p = lagrange_interpolant(pts, vals)
    assert len(p.coeffs) <= 3
    for x, v in zip(pts, vals):
        assert p(x) == v


def test_float_coefficients_are_rejected():
    with pytest.raises(TypeError):
        Poly([0.1])
    with pytest.raises(TypeError):
        Poly([1, 2]).scale(0.5)


def test_integral_coefficients_are_ints():
    p = Poly([Q(4, 2), Q(1, 2), 3])
    assert [type(c) for c in p.coeffs] == [int, Q, int]
    assert p.coeffs == (Q(2), Q(1, 2), Q(3))
    assert type(Poly([2, -1, 3])(5)) is int


def test_lagrange_rejects_float_points():
    with pytest.raises(TypeError):
        lagrange_interpolant([0.0, 0.5], [Q(1), Q(2)])


def test_lagrange_rejects_repeated_points():
    with pytest.raises(ValueError):
        lagrange_interpolant([Q(0), Q(0)], [Q(1), Q(2)])


@pytest.mark.parametrize("points,values", [([0, 1, 2], [1, 2]), ([0, 1], [1, 2, 3])])
def test_lagrange_rejects_a_value_count_other_than_the_point_count(points, values):
    with pytest.raises(ValueError):
        lagrange_interpolant([Q(p) for p in points], [Q(v) for v in values])
