"""Invariant tensors: permutation families, Casimir, Lagrange pairs."""

import pytest

from repcur.currents import EvaluationModule, invariant_operator_matrix
from repcur.invariants import (
    Permutation,
    all_permutations,
    casimir_tensor,
    fft_tensors,
    schur_weyl_polys,
    theta_cycle_gl,
    theta_sigma_form,
    theta_sigma_gl,
)
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.poly import Poly
from repcur.rational import Q
from repcur.verify import ad_invariance_defect


# -- permutations ---------------------------------------------------------


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse() * p == Permutation.identity(3)
    assert Permutation.cycle(3) == p
    assert Permutation.transposition(3, 1, 3) == Permutation((3, 2, 1))
    assert Permutation.from_cycles(4, [(1, 2), (3, 4)]) == Permutation((2, 1, 4, 3))
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


def test_permutation_composition_order():
    a = Permutation.transposition(3, 1, 2)
    b = Permutation.transposition(3, 2, 3)
    # (a * b)(i) = a(b(i))
    for i in (1, 2, 3):
        assert (a * b)(i) == a(b(i))
    assert len(list(all_permutations(3))) == 6


# -- gl tensors -----------------------------------------------------------


def test_theta_identity_is_casimir_multiple():
    # k = 2, sigma = (1 2): Sum E_ij (x) E_ji, the gl Casimir tensor
    swap = theta_sigma_gl(Permutation((2, 1)), 2)
    gl2 = build_lie_algebra(GL, 2)
    assert swap.canonical_key() == casimir_tensor(gl2).canonical_key()


def test_theta_cycle_count():
    th = theta_cycle_gl(3, 2)
    assert th.k == 3
    assert not th.is_zero()
    with pytest.raises(ValueError):
        theta_cycle_gl(0, 2)


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 1), (SO, 3)])
@pytest.mark.parametrize("k", [0, -1])
def test_fft_tensors_reject_degree_below_one(family, n, k):
    # all_permutations(0) yields the empty permutation: no degree-0 tensor
    with pytest.raises(ValueError, match="tensor degree must be >= 1"):
        fft_tensors(build_lie_algebra(family, n), k)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_gl_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(GL, n)
    for th in fft_tensors(spec, k):
        assert ad_invariance_defect(th, spec) is None
        assert all(type(c) is int for c, _ in th.terms)


# -- sp tensors -----------------------------------------------------------


def test_sp_degree_one_tensors_vanish():
    """The symplectic trace is zero, so every k = 1 tensor collapses."""
    spec = build_lie_algebra(SP, 1)
    for sigma in all_permutations(2):
        assert theta_sigma_form(sigma, spec).is_zero()


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2)])
def test_sp_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(SP, n)
    shared = fft_tensors(spec, k)  # one factor table for every sigma
    for sigma, th in zip(all_permutations(2 * k), shared, strict=True):
        assert th == theta_sigma_form(sigma, spec)
        assert ad_invariance_defect(th, spec) is None


def test_sp_degree_two_tensors_all_proportional_to_casimir():
    """For sp(2), every nonzero degree-2 tensor is a Casimir multiple."""
    spec = build_lie_algebra(SP, 1)
    omega_key = casimir_tensor(spec).canonical_key()
    nonzero = 0
    for sigma in all_permutations(4):
        th = theta_sigma_form(sigma, spec)
        if th.is_zero():
            continue
        nonzero += 1
        assert th.canonical_key() == omega_key
    assert nonzero == 16


def test_sp_rejects_odd_degree():
    with pytest.raises(ValueError):
        theta_sigma_form(Permutation((2, 3, 1)), build_lie_algebra(SP, 1))


# -- so tensors -----------------------------------------------------------


def test_so_degree_one_tensors_vanish():
    spec = build_lie_algebra(SO, 3)
    for sigma in all_permutations(2):
        assert theta_sigma_form(sigma, spec).is_zero()


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_so_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(SO, n)
    for sigma in all_permutations(2 * k):
        assert ad_invariance_defect(theta_sigma_form(sigma, spec), spec) is None


def test_non_invariant_probe_is_detected():
    spec = build_lie_algebra(GL, 2)
    from repcur.currents import InvariantTensor

    probe = InvariantTensor.from_dict(2, {(1, 1): Q(1)})  # E_12 (x) E_12
    assert ad_invariance_defect(probe, spec) is not None


# -- Casimir tensor -------------------------------------------------------


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 1), (SO, 3)])
def test_casimir_tensor_is_ad_invariant(family, n):
    spec = build_lie_algebra(family, n)
    assert ad_invariance_defect(casimir_tensor(spec), spec) is None


# -- Lagrange pairs for transposition preimages ---------------------------


def test_schur_weyl_polys_delta_property():
    pts = [Q(0), Q(1, 2), Q(7, 3)]
    p, q = schur_weyl_polys((1, 3), pts, 3)
    assert p.degree == 3 and q.degree == 3
    assert [p(x) for x in pts] == [Q(1), Q(0), Q(0)]
    assert [q(x) for x in pts] == [Q(0), Q(0), Q(1)]


def test_schur_weyl_polys_validation():
    with pytest.raises(ValueError):
        schur_weyl_polys((2, 1), [Q(0), Q(1)], 2)  # needs r < s
    with pytest.raises(ValueError):
        schur_weyl_polys((1, 2), [Q(0), Q(0)], 2)  # repeated points
    with pytest.raises(ValueError):
        schur_weyl_polys((1, 2), [Q(0)], 2)  # wrong count


def test_schur_weyl_polys_rejects_float_points():
    with pytest.raises(TypeError):
        schur_weyl_polys((1, 2), [0.0, 0.5], 2)
