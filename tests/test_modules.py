"""Modules: irrep construction, weights, Casimir scalars, commutants."""

import dataclasses
import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repcur import modules
from repcur.currents import EvaluationModule
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat, SpanTracker
from repcur.modules import (
    _lowering_closure,
    _promote,
    build_irrep,
    commutant_basis,
    commutant_dimension,
    is_dominant,
    isotypic_decompose,
    standard_module,
    tensor_module,
    weight_decomposition,
)
from repcur.poly import Poly
from repcur.rational import Q
from repcur.verify import evaluation_commutant_dimension

from reference import (
    apply_by_rows,
    casimir_eigenvalue,
    check_bracket_compatibility,
    commutant_basis_by_weight,
    is_vector,
    lowering_closure_by_rows,
    span_contains,
)


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
    assert check_bracket_compatibility(standard_module(spec))


@pytest.mark.parametrize("factor", [0, 1, 2])
def test_promote_is_the_kronecker_product_with_identities(factor):
    """1 ⊗ a ⊗ 1 entry by entry, with the entries of ``a`` kept as they
    are: ints and Qs, and no zero stored."""
    dims = [2, 3, 2]
    size = dims[factor]
    values = [[Q(1, 2), 0, 2], [0, -1, 0], [3, 0, Q(-1, 3)]]
    a = Mat([row[:size] for row in values[:size]])

    def flat(idx):
        return (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]

    entries = {}
    for row in itertools.product(*map(range, dims)):
        for c, v in a.data[row[factor]].items():
            entries[flat(row), flat(row[:factor] + (c,) + row[factor + 1 :])] = v
    promoted = _promote(a, dims, factor)
    assert promoted == Mat.from_entries(12, 12, entries)
    assert all(map(is_vector, promoted.data))


def test_tensor_module_is_a_representation(gl2):
    v = standard_module(gl2)
    assert check_bracket_compatibility(tensor_module([v, v, v]))


def test_one_factor_tensor_module_keeps_the_factor_actions(gl2, sp2):
    for w in [standard_module(gl2), build_irrep(gl2, (2, 1), 3), build_irrep(sp2, (2,), 2)]:
        one = tensor_module([w])
        assert (one.dim, one.actions) == (w.dim, w.actions)


def test_weight_decomposition_of_tensor_square(gl2):
    v = standard_module(gl2)
    spaces = weight_decomposition(tensor_module([v, v]))
    got = sorted((w, len(vectors)) for w, vectors in spaces)
    assert got == [((0, 2), 1), ((1, 1), 2), ((2, 0), 1)]


@pytest.mark.parametrize(
    "lam,m,dim", [((1, 0), 1, 2), ((2, 0), 2, 3), ((1, 1), 2, 1), ((2, 1), 3, 2)]
)
def test_gl2_irrep_dimensions(gl2, lam, m, dim):
    w = build_irrep(gl2, lam, m)
    assert w.dim == dim
    assert w.highest_weight == lam
    assert check_bracket_compatibility(w)


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
    assert check_bracket_compatibility(skew)
    with pytest.raises(ValueError, match="not diagonal"):
        weight_decomposition(skew)


def test_weight_decomposition_rejects_a_column_that_mixes_weights(gl2):
    v = standard_module(gl2)
    with pytest.raises(ValueError, match="column 1 is not a weight vector"):
        weight_decomposition(v, [{0: 1}, {0: 1, 1: 1}])


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
    assert [(w, len(vectors)) for w, vectors in weight_decomposition(module)] == spaces


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
    # "²" is a digit but not a decimal, and int() rejects it
    for raw in ["frogs", "²"]:
        monkeypatch.setenv("REPCUR_MAX_DIM", raw)
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
    module = tensor_module([v, v])
    comps = isotypic_decompose(module)
    assert [(c.mu, c.multiplicity) for c in comps] == [((2, 0), 1), ((1, 1), 1)]
    assert sum(len(_lowering_closure(module, c.hwv_basis)) for c in comps) == 4


_CUBE = tensor_module([standard_module(build_lie_algebra(GL, 2))] * 3)
_entries = st.integers(1, 3) | st.integers(-3, -1) | st.builds(
    Q, st.integers(-3, 3).filter(bool), st.integers(2, 3)
)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, _CUBE.dim - 1), _entries, min_size=1), max_size=3))
def test_lowering_closure_keeps_the_vector_invariant(seeds):
    """From any seed vectors the closure is a basis of a lowering-stable
    space, and its vectors store no zero and hold only ints and Qs.  It is
    the closure that lowers each vector row by row."""
    basis = _lowering_closure(_CUBE, seeds)
    assert basis == lowering_closure_by_rows(_CUBE, seeds)
    assert all(map(is_vector, basis))
    span = SpanTracker(_CUBE.dim)
    assert all(span.add(v) for v in basis)
    assert all(span_contains(span, v) for v in seeds)
    lowering = [_CUBE.actions[i] for i in _CUBE.spec.lowering_indices]
    assert all(span_contains(span, apply_by_rows(low, v)) for v in basis for low in lowering)


def test_isotypic_decompose_raises_when_components_do_not_exhaust(gl2):
    """With the lowering actions zeroed, each highest weight vector closes
    to a line, so Σ m_μ · dim V(μ) falls short of the dimension."""
    v = standard_module(gl2)
    module = tensor_module([v, v])
    lowering = set(gl2.lowering_indices)
    actions = [Mat.zeros(4, 4) if i in lowering else a for i, a in enumerate(module.actions)]
    broken = dataclasses.replace(module, actions=actions)
    with pytest.raises(RuntimeError, match="do not exhaust the module"):
        isotypic_decompose(broken)


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


def test_commutant_basis_validates_its_actions(gl2):
    v = standard_module(gl2)
    square = tensor_module([v, v])
    with pytest.raises(ValueError, match="empty action list"):
        commutant_basis([], square)
    with pytest.raises(ValueError, match=r"shape \(2, 2\) on a carrier of dimension 4"):
        commutant_basis(v.actions, square)
    with pytest.raises(ValueError, match=r"shape \(4, 4\) on a carrier of dimension 2"):
        commutant_basis(square.actions, v)


@pytest.mark.parametrize(
    "family,n,factors",
    [
        (GL, 2, [None]),
        (GL, 2, [None] * 2),
        (GL, 2, [None] * 3),
        (GL, 2, [None] * 4),
        (SP, 1, [None] * 3),
        (SO, 3, [None] * 3),
        (SO, 4, [None] * 2),
        (GL, 2, [(2, 0), None, None]),
    ],
)
def test_commutant_basis_against_the_isotypic_multiplicities(family, n, factors):
    """The g-commutant is the product of the matrix algebras of the
    multiplicity spaces, of dimension Σ m² over the isotypic components.
    Every basis matrix preserves each weight space and commutes with each
    action, and the matrices are linearly independent.  None stands for V."""
    spec = build_lie_algebra(family, n)
    module = tensor_module(
        [standard_module(spec) if lam is None else build_irrep(spec, lam, sum(lam)) for lam in factors]
    )
    basis = commutant_basis(module.actions, module)
    mults = sum(c.multiplicity**2 for c in isotypic_decompose(module))
    assert len(basis) == commutant_dimension(module) == mults
    weight = {i: w for w, vectors in weight_decomposition(module) for v in vectors for i in v}
    span = SpanTracker(module.dim**2)
    for m in basis:
        assert all(weight[p] == weight[q] for (p, q), _ in m.items())
        assert all(m * a == a * m for a in module.actions)
        assert span.add(m)


COMMUTANT_CASES = (
    [(GL, 2, [None] * d) for d in range(1, 5)]
    + [(GL, 3, [None] * d) for d in range(1, 4)]
    + [(SP, 1, [None] * d) for d in range(1, 4)]
    + [(SO, 3, [None] * d) for d in range(1, 4)]
    + [(family, n, [None] * 2) for family, n in [(SP, 2), (SO, 4), (SO, 5)]]
    + [(GL, 2, [(2, 0), None, None])]
)


def case_factors(family, n, factors):
    """The factor modules: V(λ) for λ and V for None."""
    spec = build_lie_algebra(family, n)
    return [standard_module(spec) if lam is None else build_irrep(spec, lam, sum(lam)) for lam in factors]


def _case_id(case):
    family, n, factors = case
    return f"{family}{n}-" + "x".join("V" if lam is None else f"V{lam}" for lam in factors)


@pytest.mark.parametrize("family,n,factors", COMMUTANT_CASES, ids=map(_case_id, COMMUTANT_CASES))
def test_generator_commutant_is_the_equal_weight_solve_over_every_action(family, n, factors):
    """Imposing only the generators on the joint eigenspaces of the
    Cartan gives, matrix for matrix, the commutant solved in the entries
    of equal weight under every basis action."""
    module = tensor_module(case_factors(family, n, factors))
    gens = [module.actions[b] for b in module.spec.generator_indices]
    want = commutant_basis_by_weight(module.actions, module)
    assert commutant_basis(gens, module) == want
    assert commutant_dimension(module) == len(want)


def _point_sets(d):
    """Distinct, partially coincident (d >= 3) and coincident points."""
    sets = [list(range(d))]
    if d >= 3:
        sets.append([0] * (d - 1) + [1])
    if d >= 2:
        sets.append([2] * d)
    return sets


@pytest.mark.parametrize("family,n,factors", COMMUTANT_CASES, ids=map(_case_id, COMMUTANT_CASES))
def test_evaluation_commutant_is_the_equal_weight_solve_over_every_current(family, n, factors):
    """At every cap below d, on distinct, partially coincident and
    coincident points, the generators on the slot basis give the dimension
    of the commutant solved in the entries of equal weight under every
    b(t^m), m up to the cap; under those same actions the block solve
    spans that commutant."""
    factor_modules = case_factors(family, n, factors)
    for points in _point_sets(len(factors)):
        em = EvaluationModule(factor_modules, points)
        for cap in range(len(factors)):
            monomials = [Poly([0] * m + [1]) for m in range(cap + 1)]
            actions = [em.basis_action(b, t_m) for b in range(em.spec.dim) for t_m in monomials]
            want = commutant_basis_by_weight(actions, em.carrier)
            assert evaluation_commutant_dimension(em, cap) == len(want), (points, cap)
            got = commutant_basis(actions, em.carrier)
            span = SpanTracker(em.dim**2)
            assert all(span.add(m) for m in want)
            assert len(got) == len(want) and all(span_contains(span, m) for m in got)


def _current_actions(em):
    """b(t^k) on the evaluation module for every basis element b and k < d."""
    monomials = [Poly([0] * k + [1]) for k in range(em.d)]
    return [em.basis_action(b, t_k) for t_k in monomials for b in range(em.spec.dim)]


@pytest.mark.parametrize("family,n,d", [(GL, 2, 3), (GL, 3, 3), (SP, 1, 3), (SO, 3, 2)])
def test_commutant_stops_at_the_identity_at_distinct_points(family, n, d, monkeypatch):
    """At distinct points the g[t]-commutant is the scalars, so the solve
    stops once its conditions leave only the identity, before every action
    is read."""
    em = EvaluationModule([standard_module(build_lie_algebra(family, n))] * d, list(range(d)))
    actions = _current_actions(em)
    read = []
    rows = modules._commutator_rows
    monkeypatch.setattr(modules, "_commutator_rows", lambda a, *rest: read.append(a) or rows(a, *rest))
    assert commutant_basis(actions, em.carrier) == [Mat.identity(em.dim)]
    assert 0 < len(read) < len(actions)


@pytest.mark.parametrize("family,n,d", [(GL, 2, 3), (SP, 1, 3), (SO, 3, 2)])
def test_commutant_at_coincident_points_is_the_g_commutant(family, n, d):
    """At one point t^k acts as a scalar multiple of t^0, so the currents
    commute with exactly what g commutes with."""
    em = EvaluationModule([standard_module(build_lie_algebra(family, n))] * d, [2] * d)
    basis = commutant_basis(_current_actions(em), em.carrier)
    assert len(basis) == commutant_dimension(em.carrier) > 1
    span = SpanTracker(em.dim**2)
    for m in commutant_basis(em.carrier.actions, em.carrier):
        span.add(m)
    assert all(span_contains(span, m) for m in basis)


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
    module = tensor_module([v] * d)
    comps = isotypic_decompose(module)
    assert [(c.mu, c.multiplicity) for c in comps] == mults
    assert all(is_vector(v) for c in comps for v in c.hwv_basis)
    assert sum(len(_lowering_closure(module, c.hwv_basis)) for c in comps) == n**d
