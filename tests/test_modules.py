"""Modules: irrep construction, weights, Casimir scalars, commutants."""

import dataclasses
import tracemalloc

import pytest

from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat
from repcur.modules import (
    build_irrep,
    casimir_eigenvalue,
    commutant_dimension,
    is_dominant,
    isotypic_decompose,
    standard_module,
    tensor_module,
    trivial_module,
    weight_decomposition,
)
from repcur.rational import Q


@pytest.fixture(scope="module")
def gl2():
    return build_lie_algebra(GL, 2)


@pytest.fixture(scope="module")
def sp2():
    return build_lie_algebra(SP, 1)


def test_is_dominant(gl2):
    gl3, sp4 = build_lie_algebra(GL, 3), build_lie_algebra(SP, 2)
    so5, so6 = build_lie_algebra(SO, 5), build_lie_algebra(SO, 6)
    assert is_dominant(gl3, (3, 1, 0))
    assert not is_dominant(gl2, (0, 2))
    assert is_dominant(gl2, (1, -1))  # gl weights may go negative
    assert not is_dominant(sp4, (2, -1))
    # type B: λ_m >= 0; type D: λ_{m-1} >= |λ_m|
    assert is_dominant(so5, (1, 0)) and not is_dominant(so5, (1, -1))
    assert is_dominant(so6, (1, 1, -1)) and is_dominant(so6, (2, 1, 1))
    assert not is_dominant(so6, (1, 0, -1)) and not is_dominant(so6, (1, 0, 1))


@pytest.mark.parametrize("family,n", [(GL, 2), (GL, 3), (SP, 1), (SP, 2), (SO, 3)])
def test_standard_module_is_a_representation(family, n):
    spec = build_lie_algebra(family, n)
    assert standard_module(spec).check_bracket_compatibility()


def test_trivial_module(gl2):
    t = trivial_module(gl2)
    assert t.dim == 1
    assert all(a.is_zero() for a in t.actions)


def test_tensor_module_is_a_representation(gl2):
    v = standard_module(gl2)
    assert tensor_module([v, v, v]).check_bracket_compatibility()


def test_weight_decomposition_of_tensor_square(gl2):
    v = standard_module(gl2)
    spaces = weight_decomposition(tensor_module([v, v]))
    got = sorted((w, cols.cols) for w, cols in spaces)
    assert got == [((0, 2), 1), ((1, 1), 2), ((2, 0), 1)]


@pytest.mark.parametrize(
    "lam,m,dim", [((1, 0), 1, 2), ((2, 0), 2, 3), ((1, 1), 2, 1), ((2, 1), 3, 2)]
)
def test_gl2_irrep_dimensions(gl2, lam, m, dim):
    w = build_irrep(gl2, lam, m)
    assert w.dim == dim
    assert w.highest_weight == lam
    assert w.check_bracket_compatibility()


def test_sp2_irrep_dimensions(sp2):
    assert build_irrep(sp2, (2,), 2).dim == 3
    assert build_irrep(sp2, (0,), 2).dim == 1


def test_gl1_has_only_highest_weight_vectors():
    # no raising operator: every weight vector is highest, so V(λ) is the
    # line of weight λ and V^(x3) is one component of multiplicity 1
    gl1 = build_lie_algebra(GL, 1)
    w = build_irrep(gl1, (2,), 2)
    assert (w.dim, w.highest_weight) == (1, (2,))
    (comp,) = isotypic_decompose(tensor_module([standard_module(gl1)] * 3))
    assert (comp.mu, comp.multiplicity) == ((3,), 1)


def test_build_irrep_rejects_bad_weight(gl2):
    with pytest.raises(ValueError):
        build_irrep(gl2, (0, 2), 2)  # not dominant
    with pytest.raises(ValueError):
        build_irrep(gl2, (1, 0), 2)  # |lam| != m for gl
    with pytest.raises(ValueError, match="needs exactly 2 entries"):
        build_irrep(gl2, (0, 0, 0), 0)  # wrong length


def test_weight_decomposition_needs_a_diagonal_cartan(gl2):
    # V in the basis (e_1, e_1 + e_2): still a g-module, but the basis is
    # not a weight basis, so the Cartan action has an off-diagonal entry
    v = standard_module(gl2)
    g, g_inv = Mat([[1, 1], [0, 1]]), Mat([[1, -1], [0, 1]])
    skew = dataclasses.replace(v, actions=[g_inv * a * g for a in v.actions])
    assert skew.check_bracket_compatibility()
    with pytest.raises(ValueError, match="not diagonal"):
        weight_decomposition(skew)


def test_weight_decomposition_rejects_a_column_that_mixes_weights(gl2):
    v = standard_module(gl2)
    with pytest.raises(ValueError, match="column 1 is not a weight vector"):
        weight_decomposition(v, Mat([[1, 1], [0, 1]]))


@pytest.mark.parametrize(
    "family,n,factors,spaces",
    [
        (GL, 2, [(2, 0), None], [((0, 3), 1), ((1, 2), 2), ((2, 1), 2), ((3, 0), 1)]),
        (SO, 3, [None], [((-1,), 1), ((0,), 1), ((1,), 1)]),
    ],
)
def test_weight_decomposition_pins(family, n, factors, spaces):
    """Weight spaces in ascending weight order; None stands for V."""
    spec = build_lie_algebra(family, n)
    module = tensor_module(
        [standard_module(spec) if lam is None else build_irrep(spec, lam, sum(lam)) for lam in factors]
    )
    assert [(w, cols.cols) for w, cols in weight_decomposition(module)] == spaces


def test_weights_are_ints(gl2):
    v = standard_module(gl2)
    cube = tensor_module([v, v, v])
    assert all(type(c) is int for w, _ in weight_decomposition(cube) for c in w)
    comps = isotypic_decompose(cube)
    assert [f"mu={c.mu}" for c in comps] == ["mu=(3, 0)", "mu=(2, 1)"]


def test_tensor_module_enforces_the_dimension_cap(gl2, monkeypatch):
    v = standard_module(gl2)
    monkeypatch.setenv("REPCUR_MAX_DIM", "7")
    assert tensor_module([v, v]).dim == 4
    with pytest.raises(ValueError, match=r"limit 7 \(raise REPCUR_MAX_DIM"):
        tensor_module([v, v, v])
    with pytest.raises(ValueError, match="dimension 8 exceeds"):
        build_irrep(gl2, (3, 0), 3)  # cut out of the third tensor power
    # the product stops at the first factor over the cap, so a huge power
    # is rejected at once and with a printable number
    with pytest.raises(ValueError, match="dimension at least 8 exceeds"):
        build_irrep(gl2, (10**5, 0), 10**5)
    monkeypatch.setenv("REPCUR_MAX_DIM", "frogs")
    with pytest.raises(ValueError, match="REPCUR_MAX_DIM must be a non-negative integer"):
        tensor_module([v, v])


def test_build_irrep_checks_the_cap_before_allocating(gl2, monkeypatch):
    # a list of 10**6 factors alone would take 8 MB
    monkeypatch.delenv("REPCUR_MAX_DIM", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="dimension at least 8192 exceeds"):
            build_irrep(gl2, (10**6, 0), 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


@pytest.mark.parametrize(
    "lam,value", [((1, 0), Q(2)), ((2, 0), Q(6)), ((1, 1), Q(2))]
)
def test_gl2_casimir_eigenvalues(gl2, lam, value):
    assert casimir_eigenvalue(gl2, build_irrep(gl2, lam, sum(lam))) == value


def test_sp2_casimir_eigenvalues(sp2):
    assert casimir_eigenvalue(sp2, standard_module(sp2)) == Q(3, 2)
    assert casimir_eigenvalue(sp2, build_irrep(sp2, (2,), 2)) == Q(4)


def test_isotypic_decomposition_tensor_square(gl2):
    v = standard_module(gl2)
    comps = isotypic_decompose(tensor_module([v, v]))
    assert [(c.mu, c.multiplicity) for c in comps] == [((2, 0), 1), ((1, 1), 1)]
    assert sum(c.multiplicity * c.irrep_dim for c in comps) == 4


def test_isotypic_decomposition_tensor_cube(gl2):
    v = standard_module(gl2)
    comps = isotypic_decompose(tensor_module([v, v, v]))
    assert [(c.mu, c.multiplicity) for c in comps] == [((3, 0), 1), ((2, 1), 2)]


def test_commutant_dimensions(gl2):
    v = standard_module(gl2)
    assert commutant_dimension(tensor_module([v, v])) == 2
    # multiplicities 1 and 2: 1^2 + 2^2
    assert commutant_dimension(tensor_module([v, v, v])) == 5
    # sp and so: the Brauer counts, sums of squared multiplicities
    for family, n, d, dim in [(SP, 2, 2, 3), (SO, 4, 2, 4), (SO, 3, 3, 15)]:
        w = standard_module(build_lie_algebra(family, n))
        assert commutant_dimension(tensor_module([w] * d)) == dim, (family, n, d)


def test_so3_commutant_dimension():
    so3 = build_lie_algebra(SO, 3)
    w = standard_module(so3)
    # identity, the factor swap, and the invariant-pairing projector
    assert commutant_dimension(tensor_module([w, w])) == 3


@pytest.mark.parametrize(
    "n,d,mults",
    [
        (3, 3, [((3,), 1), ((2,), 2), ((1,), 3), ((0,), 1)]),
        (4, 2, [((2, 0), 1), ((1, 1), 1), ((1, -1), 1), ((0, 0), 1)]),
    ],
)
def test_so_isotypic_multiplicities(n, d, mults):
    """Multiplicities in V^(x d) against the Brauer counts (up-down paths of
    Young diagrams); for so(4) the shape (1, 1) splits into (1, 1) and
    (1, -1)."""
    v = standard_module(build_lie_algebra(SO, n))
    comps = isotypic_decompose(tensor_module([v] * d))
    assert [(c.mu, c.multiplicity) for c in comps] == mults
    assert sum(c.multiplicity * c.irrep_dim for c in comps) == n**d
