"""Structure of the classical families: brackets, forms, dual bases."""

import pytest

from repcur.liealg import (
    GL,
    SO,
    SP,
    build_lie_algebra,
    form_matrix,
    sign_function,
)
from repcur.linalg import Mat, SpanTracker
from repcur.rational import Q


DIMS = {
    (GL, 2): 4,
    (GL, 3): 9,
    (SP, 1): 3,
    (SP, 2): 10,
    (SP, 3): 21,
    (SO, 3): 3,
    (SO, 4): 6,
    (SO, 5): 10,
    (SO, 6): 15,
    (SO, 7): 21,
}


@pytest.mark.parametrize("family,n", sorted(DIMS))
def test_dimensions(family, n):
    assert build_lie_algebra(family, n).dim == DIMS[(family, n)]


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 1), (SP, 2), (SO, 3), (SO, 4)])
def test_bracket_table_matches_matrices(family, n):
    spec = build_lie_algebra(family, n)
    for i in range(spec.dim):
        for j in range(spec.dim):
            lhs = spec.basis[i].commutator(spec.basis[j])
            rhs = spec.element(
                [spec.bracket[(i, j)].get(k, Q(0)) for k in range(spec.dim)]
            )
            assert lhs == rhs


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 2), (SO, 4)])
def test_jacobi_identity(family, n):
    spec = build_lie_algebra(family, n)
    b = spec.basis
    for x in b[:3]:
        for y in b[-3:]:
            for z in b[:: max(1, spec.dim // 3)]:
                jac = (
                    x.commutator(y.commutator(z))
                    + y.commutator(z.commutator(x))
                    + z.commutator(x.commutator(y))
                )
                assert jac.is_zero()


@pytest.mark.parametrize("family,n", [(GL, 2), (SP, 2), (SO, 4)])
def test_dual_basis_pairing(family, n):
    spec = build_lie_algebra(family, n)
    for i, ei in enumerate(spec.basis):
        for j, fj in enumerate(spec.dual_basis):
            assert (ei * fj).trace() == (Q(1) if i == j else Q(0))


def test_sp_elements_preserve_the_form():
    for n in (1, 2, 3):
        spec = build_lie_algebra(SP, n)
        jhat = form_matrix(SP, n)
        assert jhat.transpose() == jhat.scale(-1)
        for x in spec.basis:
            assert (x.transpose() * jhat + jhat * x).is_zero()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_so_elements_preserve_the_form(n):
    spec = build_lie_algebra(SO, n)
    j = form_matrix(SO, n)
    assert j.transpose() == j
    assert all(j[i, n - 1 - i] == 1 for i in range(n))
    for x in spec.basis:
        assert (x.transpose() * j + j * x).is_zero()


def test_coords_round_trip_and_membership():
    spec = build_lie_algebra(SP, 1)
    x = spec.element([Q(1), Q(-2), Q(1, 3)])
    assert spec.coords(x) == [Q(1), Q(-2), Q(1, 3)]
    not_sp = Mat.from_entries(2, 2, {(0, 0): Q(1)})
    with pytest.raises(ValueError):
        spec.coords(not_sp)


@pytest.mark.parametrize("family,n", sorted(DIMS))
def test_coords_of_the_basis_are_unit_vectors(family, n):
    """Each basis element is read off at its own first nonzero entry, where
    it is 1 and every other basis element vanishes."""
    spec = build_lie_algebra(family, n)
    for i, b in enumerate(spec.basis):
        assert spec.coords(b) == [int(j == i) for j in range(spec.dim)]


def test_sign_function():
    assert sign_function(2, 1) == 1
    assert sign_function(2, 2) == 1
    assert sign_function(2, 3) == -1
    assert sign_function(2, 4) == -1
    with pytest.raises(ValueError):
        sign_function(2, 5)


@pytest.mark.parametrize(
    "family,n,rank",
    [
        (GL, 2, 2),
        (GL, 3, 3),
        (SP, 1, 1),
        (SP, 2, 2),
        (SP, 3, 3),
        (SO, 3, 1),
        (SO, 4, 2),
        (SO, 5, 2),
        (SO, 6, 3),
        (SO, 7, 3),
    ],
)
def test_every_family_has_a_split_cartan(family, n, rank):
    """Diagonal Cartan elements; raising basis elements strictly upper and
    lowering ones strictly lower triangular; together they are the basis."""
    spec = build_lie_algebra(family, n)
    assert len(spec.cartan_indices) == rank
    parts = (spec.cartan_indices, spec.raising_indices, spec.lowering_indices)
    assert sorted(i for part in parts for i in part) == list(range(spec.dim))
    assert len(spec.raising_indices) == len(spec.lowering_indices)
    for part, keep in zip(parts, (lambda r, c: r == c, lambda r, c: r < c, lambda r, c: r > c)):
        for i in part:
            assert all(keep(r, c) for (r, c), _ in spec.basis[i].items())


GENERATOR_CASES = (
    [(GL, n, n - 1) for n in range(1, 5)]
    + [(SP, n, n) for n in range(1, 4)]
    + [(SO, n, n // 2) for n in range(3, 8)]
)


@pytest.mark.parametrize("family,n,simple", GENERATOR_CASES)
def test_generators_are_the_cartan_and_the_simple_root_vectors(family, n, simple):
    """n − 1, n and ⌊n/2⌋ simple raising and as many simple lowering
    elements for gl(n), sp(2n) and so(n), after the Cartan."""
    spec = build_lie_algebra(family, n)
    gens = spec.generator_indices
    rank = len(spec.cartan_indices)
    assert gens[:rank] == spec.cartan_indices
    assert len(set(gens[rank:]) & set(spec.raising_indices)) == simple
    assert len(set(gens[rank:]) & set(spec.lowering_indices)) == simple
    assert len(gens) == len(set(gens)) == rank + 2 * simple


def _simple_root_positions(family, n):
    """The (row, column) at which each simple raising element is 1, 0-based:
    the superdiagonal up to the rank, except that so(2m) trades (m−1, m)
    for (m−2, m), the root e_{m−1} + e_m."""
    rank = n - 1 if family == GL else n if family == SP else n // 2
    positions = {(i, i + 1) for i in range(rank)}
    if family == SO and n % 2 == 0:
        positions = positions - {(rank - 1, rank)} | {(rank - 2, rank)}
    return positions


@pytest.mark.parametrize("family,n,simple", GENERATOR_CASES)
def test_borel_indices_are_the_cartan_and_the_simple_raising_elements(family, n, simple):
    """``borel_indices`` is the Cartan, then the simple raising indices, in
    index order; the generators add the simple lowering ones after it."""
    spec = build_lie_algebra(family, n)
    borel = spec.borel_indices
    rank = len(spec.cartan_indices)
    assert borel[:rank] == spec.cartan_indices
    assert list(borel[rank:]) == sorted(set(borel[rank:]) & set(spec.raising_indices))
    assert len(borel) == rank + simple
    assert {min(spec.basis[i].items())[0] for i in borel[rank:]} == _simple_root_positions(family, n)
    assert spec.generator_indices[: len(borel)] == borel
    assert set(spec.generator_indices[len(borel) :]) <= set(spec.lowering_indices)


@pytest.mark.parametrize("family,n,simple", GENERATOR_CASES)
def test_generators_span_the_algebra_under_brackets(family, n, simple):
    """Right-nested brackets [g_1, [g_2, ..., g_r]] of generators span g."""
    spec = build_lie_algebra(family, n)
    span = SpanTracker(spec.dim)
    frontier = [{g: 1} for g in spec.generator_indices if span.add({g: 1})]
    while frontier:
        grown = []
        for u in frontier:
            for g in spec.generator_indices:
                w: dict = {}
                for b, c in u.items():
                    for k, x in spec.bracket[(g, b)].items():
                        w[k] = w.get(k, 0) + c * x
                w = {k: x for k, x in w.items() if x}
                if w and span.add(w):
                    grown.append(w)
        frontier = grown
    assert span.dim == spec.dim


@pytest.mark.parametrize(
    "family,n,err", [(GL, 0, True), (SP, 0, True), (SO, 1, True), (SO, 2, True), ("xx", 2, True)]
)
def test_rejects_bad_parameters(family, n, err):
    with pytest.raises(ValueError):
        build_lie_algebra(family, n)


def test_so2_is_rejected_as_abelian():
    msg = r"so\(2\) is abelian and its standard module is reducible"
    with pytest.raises(ValueError, match=msg):
        build_lie_algebra(SO, 2)
