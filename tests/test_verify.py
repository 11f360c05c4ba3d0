"""The verification layer: positive checks and negative controls."""

import itertools

import pytest

from repcur import verify
from repcur.currents import (
    EvaluationModule,
    InvariantTensor,
    current_operator_matrix,
    theta_operator,
)
from repcur.invariants import (
    Permutation,
    casimir_tensor,
    fft_tensors,
    theta_cycle_gl,
    theta_sigma_gl,
)
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat, rank
from repcur.modules import build_irrep, standard_module
from repcur.poly import Poly
from repcur.rational import Q
from repcur.verify import (
    casimir_scalar,
    check_ad_invariance,
    check_ad_invariance_family,
    check_casimir_formula,
    check_commutant,
    check_cycle_generation,
    check_evaluation_irreducibility,
    check_isotypic_irreducibility,
    check_schur_weyl,
    check_schur_weyl_composition,
    check_span_surjectivity,
    evaluation_commutant_dimension,
    place_permutation_matrix,
)


@pytest.fixture(scope="module")
def gl2():
    return build_lie_algebra(GL, 2)


@pytest.fixture(scope="module")
def em2(gl2):
    v = standard_module(gl2)
    return EvaluationModule([v, v], [Q(0), Q(1)])


@pytest.fixture(scope="module")
def em3(gl2):
    v = standard_module(gl2)
    return EvaluationModule([v, v, v], [Q(0), Q(1), Q(2)])


def test_report_shape(gl2):
    r = check_ad_invariance(casimir_tensor(gl2), gl2)
    assert r.status == "pass" and r.passed
    assert r.check_name == "ad_invariance"
    assert r.parameters["family"] == GL
    assert r.runtime_ms >= 0


def test_ad_invariance_family_reports_the_first_defect(gl2, monkeypatch):
    probe = InvariantTensor.from_dict(2, {(1, 1): Q(1)})  # E_12 (x) E_12
    monkeypatch.setattr(verify, "fft_tensors", lambda spec, k: [probe, probe])
    r = check_ad_invariance_family(gl2, 2)
    assert r.status == "fail"
    assert r.actual.startswith("defect at basis ")
    assert r.parameters["tensors"] == 1


def test_commutant_check(gl2, em2):
    theta = theta_sigma_gl(Permutation((2, 1)), 2)
    r = check_commutant(theta, [Poly([1, 1]), Poly([0, 0, 1])], em2)
    assert r.passed


def test_casimir_formula_standard(em2):
    r = check_casimir_formula(em2, Poly.monomial(1), Poly([1, 1]))
    assert r.passed
    assert "mu=(2, 0): 5" in r.expected
    assert "mu=(1, 1): 3" in r.expected


def test_casimir_formula_nonstandard_factor(gl2):
    w = build_irrep(gl2, (2, 0), 2)
    em = EvaluationModule([w, standard_module(gl2)], [Q(1, 2), Q(-2)])
    assert check_casimir_formula(em, Poly([1, 1]), Poly([0, 1, 1])).passed


@pytest.mark.parametrize(
    "n,expected",
    [
        (3, "mu=(2,): 5/2; mu=(1,): 3/2; mu=(0,): 1"),
        (4, "mu=(2, 0): 7/2; mu=(1, 1): 5/2; mu=(1, -1): 5/2; mu=(0, 0): 3/2"),
    ],
    ids=["so3", "so4"],
)
def test_so_casimir_and_isotypic_irreducibility(n, expected):
    # P = t, Q = 1 + t at the points 0, 1 give the scalar C_V + C_mu / 2:
    # C_V = 1 on so(3) and 3/2 on so(4)
    v = standard_module(build_lie_algebra(SO, n))
    em = EvaluationModule([v, v], [Q(0), Q(1)])
    r = check_casimir_formula(em, Poly.monomial(1), Poly([1, 1]))
    assert r.passed
    assert r.expected == expected
    r = check_isotypic_irreducibility(em)
    assert r.passed
    assert all(part.endswith(": 1") for part in r.actual.split("; "))


def _casimir_closed_form(family: str, n: int, lam):
    """c <λ, λ + 2ρ> in ε-coordinates, c the trace-form normalization:
    c = 1, ρ_i = (n+1)/2 - i for gl(n); c = 1/2, ρ_i = n+1-i for sp(2n);
    c = 1/2, ρ_i = n/2 - i for so(n)."""
    c, rho = {
        GL: (Q(1), lambda i: Q(n + 1, 2) - i),
        SP: (Q(1, 2), lambda i: Q(n + 1 - i)),
        SO: (Q(1, 2), lambda i: Q(n, 2) - i),
    }[family]
    return c * sum(l * (l + 2 * rho(i)) for i, l in enumerate(lam, start=1))


@pytest.mark.parametrize(
    "family,n,lam",
    [
        (GL, 2, (1, 0)), (GL, 2, (2, 0)), (GL, 2, (1, 1)), (GL, 2, (2, 1)),
        (GL, 3, (1, 0, 0)), (GL, 3, (2, 1, 0)), (GL, 3, (1, 1, 1)),
        (SP, 1, (1,)), (SP, 1, (2,)),
        (SP, 2, (1, 0)), (SP, 2, (1, 1)), (SP, 2, (2, 0)),
        (SO, 3, (1,)), (SO, 3, (2,)),
        (SO, 4, (1, 0)), (SO, 4, (1, 1)), (SO, 4, (1, -1)), (SO, 4, (2, 0)),
        (SO, 5, (1, 0)), (SO, 5, (1, 1)),
        (SO, 6, (1, 0, 0)), (SO, 6, (1, 1, 0)), (SO, 6, (1, 1, -1)), (SO, 6, (1, 1, 1)),
    ],
)
def test_casimir_scalar_closed_form(family, n, lam):
    spec = build_lie_algebra(family, n)
    assert casimir_scalar(spec, lam, {}) == _casimir_closed_form(family, n, lam)


def test_casimir_formula_validation(gl2, em3):
    with pytest.raises(ValueError):
        check_casimir_formula(em3, Poly.monomial(1), Poly.monomial(1))
    v = standard_module(gl2)
    same = EvaluationModule([v, v], [Q(1), Q(1)])
    with pytest.raises(ValueError):
        check_casimir_formula(same, Poly.monomial(1), Poly.monomial(1))


def test_place_permutation_is_a_homomorphism():
    a = Permutation((2, 3, 1))
    b = Permutation((1, 3, 2))
    ma = place_permutation_matrix(a, 2, 3)
    mb = place_permutation_matrix(b, 2, 3)
    assert ma * mb == place_permutation_matrix(a * b, 2, 3)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
def test_schur_weyl_preimages(n, k):
    pts = [Q(i) for i in range(k)]
    for r in range(1, k + 1):
        for s in range(r + 1, k + 1):
            assert check_schur_weyl((r, s), n, k, pts).passed


def test_schur_weyl_rational_points():
    assert check_schur_weyl((1, 2), 2, 3, [Q(0), Q(1, 2), Q(7, 3)]).passed


def test_schur_weyl_composition():
    assert check_schur_weyl_composition(2, 3, [Q(0), Q(1), Q(2)]).passed


def test_schur_weyl_rejects_float_points():
    with pytest.raises(TypeError):
        check_schur_weyl((1, 2), 2, 2, [0.0, 0.5])


def test_schur_weyl_composition_rejects_float_points():
    with pytest.raises(TypeError):
        check_schur_weyl_composition(2, 2, [0.0, 0.5])


@pytest.mark.parametrize(
    "family,n,d,expected",
    [(GL, 2, 2, 2), (GL, 2, 3, 5), (SP, 1, 2, 2), (SO, 3, 2, 3), (SO, 5, 2, 3)],
)
def test_span_surjectivity(family, n, d, expected):
    spec = build_lie_algebra(family, n)
    v = standard_module(spec)
    em = EvaluationModule([v] * d, [Q(i) for i in range(d)])
    r = check_span_surjectivity(em)
    assert r.passed
    assert r.actual == str(expected)


@pytest.mark.parametrize("family,n,kmax", [(SP, 1, 3), (SP, 2, 2), (SO, 3, 3), (SO, 4, 2)])
def test_distinct_tensors_equal_the_full_enumeration(family, n, kmax):
    spec = build_lie_algebra(family, n)
    for k in range(1, kmax + 1):
        first = {}  # canonical key -> first nonzero tensor, in enumeration order
        for th in fft_tensors(spec, k):
            if not th.is_zero():
                first.setdefault(th.canonical_key(), th)
        assert verify._distinct_tensors(spec, k) == list(first.values())


def test_span_check_rejects_image_outside_commutant(em2, monkeypatch):
    # the identity plus one non-commuting matrix span 2 dimensions, the
    # commutant dimension of V (x) V, so only containment can catch it
    bogus = Mat.from_entries(em2.dim, em2.dim, {(0, 1): Q(1)})
    monkeypatch.setattr(verify, "fft_current_images", lambda em, cap: iter([bogus]))
    r = check_span_surjectivity(em2)
    assert r.status == "fail"
    assert r.expected == "2"
    assert r.actual.startswith("2; image 0 does not commute with basis element ")


def test_span_needs_distinct_points(gl2):
    v = standard_module(gl2)
    em = EvaluationModule([v, v], [Q(0), Q(0)])
    with pytest.raises(ValueError):
        check_span_surjectivity(em)


def test_isotypic_irreducibility(em3):
    r = check_isotypic_irreducibility(em3)
    assert r.passed
    assert "mu=(2, 1): 4" in r.actual


def test_isotypic_irreducibility_fails_at_coincident_points(gl2):
    v = standard_module(gl2)
    em = EvaluationModule([v, v, v], [Q(0), Q(0), Q(0)])
    assert not check_isotypic_irreducibility(em).passed


def test_cycle_generation(em3):
    r = check_cycle_generation(em3)
    assert r.passed
    assert r.actual == "5"
    assert r.parameters["sorted_tuple_closure_dim"] == 5


def test_cycle_generation_at_four_points(gl2):
    v = standard_module(gl2)
    r = check_cycle_generation(EvaluationModule([v] * 4, [Q(i) for i in range(4)]))
    assert r.passed
    assert r.actual == "14"
    assert r.parameters["sorted_tuple_closure_dim"] == 14


def test_sp_isotypic_irreducibility_at_three_points():
    v = standard_module(build_lie_algebra(SP, 1))
    r = check_isotypic_irreducibility(EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)]))
    assert r.passed
    assert r.actual == "mu=(3,): 1; mu=(1,): 4"


@pytest.mark.parametrize(
    "cap,status,actual,direct,extended",
    [(0, "fail", "2", 2, False), (1, "pass", "5", 4, True), (3, "pass", "5", 5, False)],
)
def test_span_surjectivity_at_other_caps(em3, cap, status, actual, direct, extended):
    r = check_span_surjectivity(em3, cap)
    assert (r.status, r.expected, r.actual) == (status, "5", actual)
    assert r.parameters["direct_span"] == direct
    assert r.parameters["product_extended"] is extended


@pytest.mark.parametrize(
    "cap,status,multiplicity_algebra", [(0, "fail", 1), (1, "pass", 4), (3, "pass", 4)]
)
def test_isotypic_irreducibility_at_other_caps(em3, cap, status, multiplicity_algebra):
    r = check_isotypic_irreducibility(em3, cap)
    assert r.status == status
    assert r.actual == f"mu=(3, 0): 1; mu=(2, 1): {multiplicity_algebra}"


def test_sp_isotypic_irreducibility_at_cap_one():
    v = standard_module(build_lie_algebra(SP, 1))
    r = check_isotypic_irreducibility(EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)]), 1)
    assert r.passed
    assert r.actual == "mu=(3,): 1; mu=(1,): 4"


def test_isotypic_irreducibility_fails_at_partially_coincident_points(gl2):
    v = standard_module(gl2)
    r = check_isotypic_irreducibility(EvaluationModule([v] * 3, [Q(1), Q(1), Q(2)]))
    assert r.status == "fail"
    assert r.actual == "mu=(3, 0): 1; mu=(2, 1): 2"


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_cycle_generation_at_other_caps(em3, cap):
    r = check_cycle_generation(em3, cap)
    assert r.passed
    assert r.actual == "5"
    assert r.parameters["sorted_tuple_closure_dim"] == 5


def test_slot_basis_is_the_point_indicators(em3):
    basis = verify._slot_basis(em3, em3.d - 1)
    assert [[p(x) for x in em3.points] for p in basis] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "points", [[Q(-1), Q(1, 2), Q(3)], [Q(1), Q(1), Q(2)], [Q(5, 2)] * 3]
)
@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_slot_basis_spans_the_monomials_on_the_points(gl2, points, cap):
    em = EvaluationModule([standard_module(gl2)] * 3, points)
    basis = verify._slot_basis(em, cap)
    monomials = [Poly.monomial(m) for m in range(cap + 1)]
    on_points = [[p(x) for x in points] for p in basis]
    monomials_on_points = [[p(x) for x in points] for p in monomials]
    assert len(basis) == rank(Mat(on_points)) == rank(Mat(monomials_on_points))
    assert rank(Mat(on_points + monomials_on_points)) == len(basis)


@pytest.mark.parametrize("d", [3, 4])
def test_sorted_cycle_closure_is_fed_the_sorted_monomial_images(gl2, d, monkeypatch):
    """The sorted and full closure dimensions agree on every grid tried, so
    only the images themselves show which tuples the sorted closure saw."""
    em = EvaluationModule([standard_module(gl2)] * d, [Q(i) for i in range(d)])
    fed = []
    closure = verify.algebra_closure

    def recording_closure(gens, size):
        fed.append(list(gens))
        return closure(fed[-1], size)

    monkeypatch.setattr(verify, "algebra_closure", recording_closure)
    assert check_cycle_generation(em).passed
    sorted_images = [
        current_operator_matrix(
            theta_operator(theta_cycle_gl(j, 2), [Poly.monomial(m) for m in degs]), em
        )
        for j in range(1, d + 1)
        for degs in itertools.product(range(d), repeat=j)
        if list(degs) == sorted(degs)
    ]
    assert len(fed) == 2
    assert sorted_images in fed


def test_cycle_generation_is_gl_only():
    sp2 = build_lie_algebra(SP, 1)
    v = standard_module(sp2)
    em = EvaluationModule([v, v], [Q(0), Q(1)])
    with pytest.raises(ValueError):
        check_cycle_generation(em)


@pytest.mark.parametrize(
    "family,n,d", [(GL, 2, 2), (GL, 2, 3), (SP, 1, 2), (SO, 3, 2), (SO, 4, 2)]
)
def test_evaluation_irreducibility(family, n, d):
    spec = build_lie_algebra(family, n)
    v = standard_module(spec)
    em = EvaluationModule([v] * d, [Q(i) for i in range(d)])
    assert check_evaluation_irreducibility(em).passed


def test_evaluation_reducible_at_coincident_points(gl2):
    v = standard_module(gl2)
    em = EvaluationModule([v, v, v], [Q(0), Q(0), Q(0)])
    r = check_evaluation_irreducibility(em)
    assert not r.passed
    assert evaluation_commutant_dimension(em) == 5
