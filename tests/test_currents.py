"""Evaluation modules and the current-operator calculus."""

import itertools

import pytest

from repcur.currents import (
    EvaluationModule,
    InvariantTensor,
    current_images,
    invariant_operator_matrix,
)
from repcur.invariants import Permutation, casimir_tensor, fft_tensors, theta_sigma
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat, lincomb
from repcur.modules import standard_module
from repcur.poly import Poly, lagrange_interpolant
from repcur.rational import Q

from reference import reference_image


@pytest.fixture(scope="module")
def gl2():
    return build_lie_algebra(GL, 2)


@pytest.fixture(scope="module")
def em3(gl2):
    v = standard_module(gl2)
    return EvaluationModule([v, v, v], [Q(0), Q(1), Q(2)])


def test_point_count_must_match(gl2):
    v = standard_module(gl2)
    with pytest.raises(ValueError):
        EvaluationModule([v, v], [Q(0)])


def test_float_points_are_rejected(gl2):
    v = standard_module(gl2)
    with pytest.raises(TypeError):
        EvaluationModule([v, v], [0, 0.5])


def test_basis_action_scales_by_point_values(em3):
    one = Poly.constant(1)
    t = Poly([0, 1])
    for b in range(4):
        a0 = em3.basis_action(b, one)
        a1 = em3.basis_action(b, t)
        a2 = em3.basis_action(b, Poly([0, 0, 1]))
        # on the points (0, 1, 2), t^3 interpolates to 3 t^2 - 2 t
        a3 = em3.basis_action(b, Poly([0, 0, 0, 1]))
        assert a3 == a2.scale(3) - a1.scale(2)
        assert a0 == em3.basis_action(b, Poly.constant(1))


def test_bracket_homomorphism(gl2, em3):
    """[x(P), y(Q)] acts as [x, y](PQ) on an evaluation module."""
    p = Poly([1, 2])
    q = Poly([0, 0, 1])
    for i in [0, 1, 3]:
        for j in [1, 2]:
            lhs = em3.basis_action(i, p).commutator(em3.basis_action(j, q))
            xy = gl2.coords(gl2.basis[i].commutator(gl2.basis[j]))
            terms = ((c, em3.basis_action(k, p * q)) for k, c in enumerate(xy))
            assert lhs == lincomb(terms, em3.dim, em3.dim)


def test_interpolation_losslessness(em3):
    """Any polynomial acts like its degree < d interpolant on d points."""
    p = Poly([5, -3, 0, 2, 1])  # degree 4
    interp = lagrange_interpolant(em3.points, [p(x) for x in em3.points])
    assert len(interp.coeffs) <= 3
    for b in range(4):
        assert em3.basis_action(b, p) == em3.basis_action(b, interp)


def test_theta_operator_expansion_matches_fast_path(gl2, em3):
    theta = theta_sigma(Permutation((2, 1, 3)), gl2)
    polys = [Poly([1, 1]), Poly([0, 2]), Poly([1, 0, 1])]
    slow = reference_image(theta, polys, em3)
    fast = invariant_operator_matrix(theta, polys, em3)
    assert slow == fast


# slot lists of unequal lengths, with polynomials that are not monomials
SLOT_POLYS = [
    [Poly([1, 1]), Poly([0, Q(1, 2), 1])],
    [Poly([0, 0, 1]), Poly([-3]), Poly([2, 0, -1])],
    [Poly([0, 1])],
]


def _tensors_and_module(family, n, k, d):
    """Every nonzero FFT tensor of degree k, the Casimir when k = 2 and a
    tensor that is not invariant, on d standard factors at 0, ..., d-1."""
    spec = build_lie_algebra(family, n)
    tensors = [th for th in fft_tensors(spec, k) if not th.is_zero()]
    if k == 2:
        tensors.append(casimir_tensor(spec))
    words = list(itertools.product(range(spec.dim), repeat=k))[::3]
    tensors.append(InvariantTensor.from_dict(k, {w: Q(i % 5 - 2, 3) for i, w in enumerate(words)}))
    v = standard_module(spec)
    return tensors, EvaluationModule([v] * d, [Q(i) for i in range(d)])


@pytest.mark.parametrize(
    "family,n,k,d", [(GL, 2, 3, 3), (GL, 2, 1, 2), (SP, 1, 2, 2), (SO, 3, 2, 2)]
)
def test_current_images_match_the_reference_expansion(family, n, k, d):
    tensors, em = _tensors_and_module(family, n, k, d)
    slots = SLOT_POLYS[:k]
    for theta in tensors:
        want = [reference_image(theta, polys, em) for polys in itertools.product(*slots)]
        assert list(current_images(theta, itertools.product(*slots), em)) == want


def test_current_images_follow_any_tuple_order():
    """Repeated tuples, prefixes that break and prefixes that come back."""
    tensors, em = _tensors_and_module(GL, 2, 3, 3)
    a, b, c = Poly([1, 1]), Poly([0, Q(1, 2), 1]), Poly([-3])
    tuples = [
        (a, b, c), (a, b, c), (a, b, a), (a, c, a), (b, b, c),
        (a, b, c), (c, c, c), (a, b, b), (Poly([1, 1]), b, b),
    ]
    for theta in tensors:
        want = [reference_image(theta, t, em) for t in tuples]
        assert list(current_images(theta, iter(tuples), em)) == want


def test_current_images_of_degree_zero_and_of_zero(em3):
    scalar = InvariantTensor.from_dict(0, {(): Q(3)})
    assert list(current_images(scalar, [()], em3)) == [Mat.identity(em3.dim).scale(3)]
    zero = InvariantTensor(2, ())
    images = list(current_images(zero, itertools.product(*SLOT_POLYS[:2]), em3))
    assert len(images) == 6
    assert all(img == Mat.zeros(em3.dim, em3.dim) for img in images)


def test_current_images_arity_check(gl2, em3):
    with pytest.raises(ValueError):
        list(current_images(casimir_tensor(gl2), itertools.product(*SLOT_POLYS), em3))
    with pytest.raises(ValueError):
        invariant_operator_matrix(casimir_tensor(gl2), [Poly([1])], em3)


def test_invariant_tensor_algebra():
    a = InvariantTensor.from_dict(2, {(0, 1): Q(1), (1, 0): Q(0)})
    assert a.terms == ((Q(1), (0, 1)),)
    assert not a.is_zero()
    assert InvariantTensor.from_dict(2, {(0, 1): Q(0)}).is_zero()


def test_sp_evaluation_module_dimensions():
    sp2 = build_lie_algebra(SP, 1)
    v = standard_module(sp2)
    em = EvaluationModule([v, v], [Q(0), Q(1)])
    assert em.dim == 4
    assert em.d == 2
    assert em.has_distinct_points()
    assert not EvaluationModule([v, v], [Q(1), Q(1)]).has_distinct_points()
