"""Invariant tensors: permutation families, Casimir, Lagrange pairs."""

import itertools
import math

import pytest

from repcur.invariants import (
    Permutation,
    all_permutations,
    casimir_tensor,
    covers,
    fft_tensors,
    schur_weyl_polys,
    theta_sigma,
)
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat, SpanTracker
from repcur.rational import Q
from repcur.verify import ad_invariance_defect

from reference import scaled


def _proportional(a, b) -> bool:
    """a and b are nonzero tensors, each a multiple of the other."""
    return scaled(a, b.terms[0][0]) == scaled(b, a.terms[0][0])


def _span_rank(tensors, dim: int, k: int) -> int:
    """Rank of the tensors as vectors of length dim^k."""
    tracker = SpanTracker(dim**k)
    for th in tensors:
        flat = {(0, sum(i * dim**p for p, i in enumerate(idx))): c for c, idx in th.terms}
        tracker.add(Mat.from_entries(1, dim**k, flat))
    return tracker.dim


# -- permutations ---------------------------------------------------------


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p(1) == 2 and p(3) == 1
    assert p.inverse() * p == Permutation((1, 2, 3))
    assert Permutation.cycle(3) == p
    assert Permutation.transposition(3, 1, 3) == Permutation((3, 2, 1))
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
    gl2 = build_lie_algebra(GL, 2)
    swap = theta_sigma(Permutation((2, 1)), gl2)
    assert _proportional(swap, casimir_tensor(gl2))


def test_theta_cycle_count():
    gl2 = build_lie_algebra(GL, 2)
    th = theta_sigma(Permutation.cycle(3), gl2)
    assert th.k == 3
    assert not th.is_zero()
    with pytest.raises(ValueError, match="tensor degree must be >= 1"):
        theta_sigma(Permutation.cycle(0), gl2)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_gl_tensors_are_the_permutation_tensors(n, k):
    """On gl the projection is the identity: θ_σ is Σ_i ⊗_j E_{i_j, i_σ(j)}
    itself, with integer coefficients, in the order of S_k."""
    spec = build_lie_algebra(GL, n)
    for sigma, th in zip(all_permutations(k), fft_tensors(spec, k), strict=True):
        want: dict = {}
        for idx in itertools.product(range(n), repeat=k):
            key = tuple(idx[j - 1] * n + idx[sigma(j) - 1] for j in range(1, k + 1))
            want[key] = want.get(key, 0) + 1
        assert th.terms == tuple((c, key) for key, c in sorted(want.items()))
        assert all(type(c) is int for c, _ in th.terms)


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 1), (SO, 3)])
@pytest.mark.parametrize("k", [0, -1])
def test_fft_tensors_reject_degree_below_one(family, n, k):
    # all_permutations(0) yields the empty permutation: no degree-0 tensor
    with pytest.raises(ValueError, match="tensor degree must be >= 1"):
        fft_tensors(build_lie_algebra(family, n), k)


@pytest.mark.parametrize("n,k", [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 3)])
def test_gl_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(GL, n)
    for th in fft_tensors(spec, k):
        assert ad_invariance_defect(th, spec) is None
        assert all(type(c) is int for c, _ in th.terms)


# -- covers ---------------------------------------------------------------


@pytest.mark.parametrize("family", [GL, SP, SO])
def test_cover_counts(family):
    """k! permutations for gl; for sp and so the loopless, unoriented
    2-regular multigraphs on k labelled vertices."""
    counts = [len(list(covers(family, k))) for k in range(1, 7)]
    if family == GL:
        assert counts == [math.factorial(k) for k in range(1, 7)]
    else:
        assert counts == [0, 1, 1, 6, 22, 130]


def test_form_covers_are_fixed_point_free_with_one_orientation():
    for sigma in covers(SP, 5):
        assert all(sigma(i) != i for i in range(1, 6))
    assert [s.images for s in covers(SO, 3)] == [(2, 3, 1)]
    assert [s.images for s in covers(SO, 4)] == [
        (2, 1, 4, 3),
        (2, 3, 4, 1),
        (2, 4, 1, 3),
        (3, 4, 1, 2),
        (3, 4, 2, 1),
        (4, 3, 2, 1),
    ]


@pytest.mark.parametrize(
    "family,n,ranks",
    [
        (GL, 2, [1, 2, 5]),
        (GL, 3, [1, 2, 6]),
        (SP, 1, [0, 1, 1, 3]),
        (SP, 2, [0, 1, 1]),
        (SO, 3, [0, 1, 1, 3]),
        (SO, 4, [0, 1, 1]),
    ],
)
def test_fft_tensor_span_ranks(family, n, ranks):
    """Ranks of the FFT tensor spans for k = 1, 2, ...: k! on gl(n) for
    k <= n, and one dimension short at gl(2), k = 3, where the
    antisymmetrizer vanishes."""
    spec = build_lie_algebra(family, n)
    got = [_span_rank(fft_tensors(spec, k), spec.dim, k) for k in range(1, len(ranks) + 1)]
    assert got == ranks


# -- sp tensors -----------------------------------------------------------


def test_sp_degree_one_tensors_vanish():
    """The symplectic trace is zero: no k = 1 cover, and θ_id collapses."""
    spec = build_lie_algebra(SP, 1)
    assert fft_tensors(spec, 1) == []
    assert theta_sigma(Permutation((1,)), spec).is_zero()


@pytest.mark.parametrize("n,k", [(1, 2), (2, 2), (1, 3), (1, 4), (2, 3)])
def test_sp_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(SP, n)
    for th in fft_tensors(spec, k):
        assert not th.is_zero()
        assert ad_invariance_defect(th, spec) is None


def test_sp_degree_two_tensors_all_proportional_to_casimir():
    """For sp(2), the one nonzero degree-2 tensor is a Casimir multiple:
    σ = id gives tr x · tr y = 0, and σ = (1 2) gives tr(xy)."""
    spec = build_lie_algebra(SP, 1)
    omega = casimir_tensor(spec)
    nonzero = 0
    for sigma in all_permutations(2):
        th = theta_sigma(sigma, spec)
        if th.is_zero():
            continue
        nonzero += 1
        assert _proportional(th, omega)
    assert nonzero == 1


def test_reversed_cycle_scales_theta_by_its_sign():
    """tr(x_1 ⋯ x_r) = (−1)^r tr(x_r ⋯ x_1) on sp and so, so a cycle and its
    reverse give proportional tensors and one orientation suffices."""
    for family, n in [(SP, 1), (SP, 2), (SO, 3), (SO, 4)]:
        spec = build_lie_algebra(family, n)
        for r in (2, 3, 4):
            cycle = Permutation.cycle(r)
            forward, backward = theta_sigma(cycle, spec), theta_sigma(cycle.inverse(), spec)
            assert backward == scaled(forward, (-1) ** r)


# -- so tensors -----------------------------------------------------------


def test_so_degree_one_tensors_vanish():
    spec = build_lie_algebra(SO, 3)
    assert fft_tensors(spec, 1) == []
    assert theta_sigma(Permutation((1,)), spec).is_zero()


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (3, 3), (3, 4), (4, 3)])
def test_so_tensors_are_ad_invariant(n, k):
    spec = build_lie_algebra(SO, n)
    for th in fft_tensors(spec, k):
        assert not th.is_zero()
        assert ad_invariance_defect(th, spec) is None


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
    assert len(p.coeffs) == len(q.coeffs) == 4
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
