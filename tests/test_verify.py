"""The verification layer: positive checks and negative controls."""

import pytest

from repcur import verify
from repcur.currents import EvaluationModule, InvariantTensor
from repcur.invariants import (
    Permutation,
    casimir_tensor,
    fft_tensors,
    theta_sigma,
)
from repcur.liealg import GL, SO, SP, build_lie_algebra
from repcur.linalg import Mat, rank, solve_columns
from repcur.modules import (
    build_irrep,
    commutant_dimension,
    standard_module,
)
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

from reference import casimir_eigenvalue, slot_basis_by_interpolation


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
    theta = theta_sigma(Permutation((2, 1)), gl2)
    r = check_commutant(theta, [Poly([1, 1]), Poly([0, 0, 1])], em2)
    assert r.passed


def test_casimir_formula_standard(em2):
    r = check_casimir_formula(em2, Poly([0, 1]), Poly([1, 1]))
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
    r = check_casimir_formula(em, Poly([0, 1]), Poly([1, 1]))
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
    """Three routes to C_λ agree: the library's ⟨λ, λ + 2ρ⟩ from the spec,
    the family table above, and the Casimir operator on the built V(λ)."""
    spec = build_lie_algebra(family, n)
    built = casimir_eigenvalue(spec, build_irrep(spec, lam, sum(map(abs, lam))))
    assert casimir_scalar(spec, lam) == _casimir_closed_form(family, n, lam) == built


def test_casimir_formula_validation(gl2, em3):
    with pytest.raises(ValueError):
        check_casimir_formula(em3, Poly([0, 1]), Poly([0, 1]))
    v = standard_module(gl2)
    same = EvaluationModule([v, v], [Q(1), Q(1)])
    with pytest.raises(ValueError):
        check_casimir_formula(same, Poly([0, 1]), Poly([0, 1]))


def test_place_permutation_is_a_homomorphism():
    a = Permutation((2, 3, 1))
    b = Permutation((1, 3, 2))
    ma = place_permutation_matrix(a, 2, 3)
    mb = place_permutation_matrix(b, 2, 3)
    assert ma * mb == place_permutation_matrix(a * b, 2, 3)


def _standard_power(n, k, points):
    return EvaluationModule([standard_module(build_lie_algebra(GL, n))] * k, points)


@pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (3, 2)])
def test_schur_weyl_preimages(n, k):
    em = _standard_power(n, k, [Q(i) for i in range(k)])
    for r in range(1, k + 1):
        for s in range(r + 1, k + 1):
            assert check_schur_weyl((r, s), em).passed


def test_schur_weyl_rational_points():
    assert check_schur_weyl((1, 2), _standard_power(2, 3, [Q(0), Q(1, 2), Q(7, 3)])).passed


def test_schur_weyl_composition():
    assert check_schur_weyl_composition(_standard_power(2, 3, [Q(0), Q(1), Q(2)])).passed


# The checks take the evaluation module, so float points are rejected when
# it is built, before either check runs; these two cover that rejection.
def test_schur_weyl_rejects_float_points():
    with pytest.raises(TypeError):
        check_schur_weyl((1, 2), _standard_power(2, 2, [0.0, 0.5]))


def test_schur_weyl_composition_rejects_float_points():
    with pytest.raises(TypeError):
        check_schur_weyl_composition(_standard_power(2, 2, [0.0, 0.5]))


def test_schur_weyl_composition_rejects_fewer_than_two_factors():
    with pytest.raises(ValueError, match="at least two"):
        check_schur_weyl_composition(_standard_power(2, 1, [Q(0)]))


def test_schur_weyl_checks_need_a_power_of_the_standard_gl_module(gl2):
    sp = standard_module(build_lie_algebra(SP, 1))
    irrep = build_irrep(gl2, (2, 0), 2)
    for em in (
        EvaluationModule([sp, sp], [Q(0), Q(1)]),
        EvaluationModule([irrep, standard_module(gl2)], [Q(0), Q(1)]),
    ):
        with pytest.raises(ValueError, match="standard gl"):
            check_schur_weyl((1, 2), em)
        with pytest.raises(ValueError, match="standard gl"):
            check_schur_weyl_composition(em)


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


def test_so4_span_misses_the_epsilon_invariant():
    """Negative control for the so(4) span claim: the Brauer (O(4)) tensors
    miss the Hodge star on V (x) V, an SO(4) invariant, so closing the kept
    images lifts the direct span 2 only to 3 of the commutant's 4."""
    v = standard_module(build_lie_algebra(SO, 4))
    r = check_span_surjectivity(EvaluationModule([v, v], [Q(0), Q(1)]))
    assert r.status == "fail"
    assert (r.expected, r.actual) == ("4", "3")
    assert r.parameters["direct_span"] == 2
    assert r.parameters["product_extended"] is True


@pytest.mark.parametrize(
    "family,n,weight,status,expected,actual",
    [
        (SP, 1, (3,), "pass", "4", "4"),
        (SO, 3, (2,), "pass", "5", "5"),
        (GL, 3, (2, 1, 0), "fail", "8", "4"),
    ],
    ids=["sp1-V3", "so3-V2", "gl3-adjoint"],
)
def test_span_closes_the_images_on_non_standard_factors(
    family, n, weight, status, expected, actual
):
    """On W (x) W at points 0, 1 the degree <= 2 images span only 2
    dimensions; their closure reaches the commutant for sp(1) V(3) and
    so(3) V(2).  gl(3) adjoint (x) adjoint stays short, at 4 of 8: its
    tensor degree needs the bound sum |lambda_i| = 6, not d = 2."""
    spec = build_lie_algebra(family, n)
    w = build_irrep(spec, weight, sum(map(abs, weight)))
    r = check_span_surjectivity(EvaluationModule([w, w], [Q(0), Q(1)]))
    assert (r.status, r.expected, r.actual) == (status, expected, actual)
    assert r.parameters["direct_span"] == 2
    assert r.parameters["product_extended"] is True


def _inject_in_front(monkeypatch, bogus):
    """Patch the image builder to yield ``bogus`` in front of the images of
    every tensor."""
    images = verify.current_images

    def injecting(theta, tuples, em):
        yield bogus
        yield from images(theta, tuples, em)

    monkeypatch.setattr(verify, "current_images", injecting)


@pytest.mark.parametrize(
    "family,n,expected", [(SO, 3, 15), (SP, 2, 14)], ids=["so3", "sp2"]
)
def test_span_closes_beyond_the_desk_grid_at_degree_two(family, n, expected, monkeypatch):
    """The so(3) and sp(2) images of degree at most 2 span only part of the
    commutant of V (x) V (x) V; their closure fills it, so no degree-3
    image is built."""
    v = standard_module(build_lie_algebra(family, n))
    degrees = _recording_degrees(monkeypatch)
    r = check_span_surjectivity(EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)]))
    assert (r.status, r.expected, r.actual) == ("pass", str(expected), str(expected))
    assert r.parameters["product_extended"]
    assert max(degrees) == 2


@pytest.mark.parametrize(
    "family,n", [(GL, 2), (SP, 1), (SO, 3)], ids=["gl2", "sp1", "so3"]
)
def test_hwv_frame_reads_blocks_off_rows(family, n, monkeypatch):
    """The selected rows of the highest-weight-vector columns are the
    identity, and the row read-off of each kept image is its block, the
    solution of H X = C H."""
    v = standard_module(build_lie_algebra(family, n))
    em = EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)])
    _, select, hwv = verify._hwv_frame(em)
    assert select * hwv == Mat.identity(hwv.cols)
    kept = []
    noncommuting = verify._noncommuting_basis_element

    def recording(op, em):
        kept.append(op)
        return noncommuting(op, em)

    monkeypatch.setattr(verify, "_noncommuting_basis_element", recording)
    assert check_span_surjectivity(em).passed
    assert kept
    for img in kept:
        assert select * img * hwv == solve_columns(hwv, img * hwv)


@pytest.mark.parametrize("b", [*range(9), None])
def test_noncommuting_basis_element_is_the_first_of_all(b):
    """The generators are scanned first, but the element reported is the
    first basis element, generator or not, whose commutator with the action
    of b (the identity for None) is nonzero.  In gl(3), E_13 (index 2) is
    not a generator, and it is the first to fail against E_32 and E_33."""
    em = EvaluationModule([standard_module(build_lie_algebra(GL, 3))] * 2, [Q(0), Q(1)])
    op = Mat.identity(em.dim) if b is None else em.carrier.actions[b]
    first = next(
        (y for y, a in enumerate(em.carrier.actions) if not a.commutator(op).is_zero()), None
    )
    assert verify._noncommuting_basis_element(op, em) == first
    if b in (7, 8, None):
        assert first == (None if b is None else 2)


def test_span_check_rejects_image_outside_commutant(em2, monkeypatch):
    # the blocks of the identity and of one non-commuting matrix span 2
    # dimensions, the commutant dimension of V (x) V, so only containment
    # can catch it
    _inject_in_front(monkeypatch, Mat.from_entries(em2.dim, em2.dim, {(0, 1): Q(1)}))
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


def test_burnside_check_rejects_image_outside_commutant(em2, monkeypatch):
    # the identity's block already fills both 1 x 1 blocks, and with the
    # non-commuting matrix's block it spans the 2 dimensions of the block
    # algebra, so only containment can catch it; the check fails, not raises
    _inject_in_front(monkeypatch, Mat.from_entries(em2.dim, em2.dim, {(0, 1): Q(1)}))
    r = check_isotypic_irreducibility(em2)
    assert r.status == "fail"
    assert r.expected == "mu=(2, 0): 1; mu=(1, 1): 1"
    assert r.actual.startswith(
        "mu=(2, 0): 1; mu=(1, 1): 1; image 0 does not commute with basis element "
    )


def test_isotypic_irreducibility_fails_at_coincident_points(gl2):
    v = standard_module(gl2)
    em = EvaluationModule([v, v, v], [Q(0), Q(0), Q(0)])
    assert not check_isotypic_irreducibility(em).passed


def test_cycle_generation(em3):
    r = check_cycle_generation(em3)
    assert r.passed
    assert r.actual == "5"


def test_cycle_generation_at_four_points(gl2):
    v = standard_module(gl2)
    r = check_cycle_generation(EvaluationModule([v] * 4, [Q(i) for i in range(4)]))
    assert r.passed
    assert r.actual == "14"


def test_sp_isotypic_irreducibility_at_three_points():
    v = standard_module(build_lie_algebra(SP, 1))
    r = check_isotypic_irreducibility(EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)]))
    assert r.passed
    assert r.actual == "mu=(3,): 1; mu=(1,): 4"


@pytest.mark.parametrize(
    "cap,status,actual,direct,extended",
    [(0, "fail", "2", 2, False), (1, "pass", "5", 4, True), (3, "pass", "5", 4, True)],
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
    monomials = [Poly([0] * m + [1]) for m in range(cap + 1)]
    on_points = [[p(x) for x in points] for p in basis]
    monomials_on_points = [[p(x) for x in points] for p in monomials]
    assert len(basis) == rank(Mat(on_points)) == rank(Mat(monomials_on_points))
    assert rank(Mat(on_points + monomials_on_points)) == len(basis)
    # the Lagrange interpolants of the reduced rows, coefficient for coefficient
    typed = [[(type(c), c) for c in p.coeffs] for p in basis]
    assert typed == [[(type(c), c) for c in p.coeffs] for p in slot_basis_by_interpolation(points, cap)]


def test_slot_basis_reduces_at_most_one_row_per_distinct_point(gl2, monkeypatch):
    """On k distinct points the monomials past t^(k−1) add no rank, so a
    huge cap reduces k rows and gives the basis of cap k − 1."""
    em = EvaluationModule([standard_module(gl2)] * 3, [Q(0), Q(1), Q(7, 3)])
    shapes = []
    rref = verify.rref
    monkeypatch.setattr(verify, "rref", lambda m: shapes.append(m.shape) or rref(m))
    assert verify._slot_basis(em, 10**4) == verify._slot_basis(em, 2)
    assert verify.evaluation_commutant_dimension(em, 10**4) == 1
    assert shapes and all(rows <= 3 for rows, _ in shapes)


def _recording_closures(monkeypatch):
    """Patch the closure to record, per call, the number of generators and
    the dimension of the algebra returned."""
    fed = []
    closure = verify.algebra_closure

    def recording(gens, size, bound=None):
        basis = closure(gens, size, bound)
        fed.append((len(gens), len(basis)))
        return basis

    monkeypatch.setattr(verify, "algebra_closure", recording)
    return fed


def _recording_degrees(monkeypatch):
    """Patch the image builder to record the tensor degree of each image."""
    degrees = []
    images = verify.current_images

    def recording(theta, tuples, em):
        for img in images(theta, tuples, em):
            degrees.append(theta.k)
            yield img

    monkeypatch.setattr(verify, "current_images", recording)
    return degrees


@pytest.mark.parametrize(
    "d,cap,status,actual,closed",
    [
        (4, 1, "pass", 14, [(0, 1), (3, 12), (5, 12), (9, 14)]),
        (4, 0, "fail", 3, [(0, 1), (1, 3), (1, 3), (2, 3)]),
        (3, 0, "fail", 2, [(0, 1), (1, 2), (1, 2)]),
    ],
    ids=["d4-cap1", "d4-cap0", "d3-cap0"],
)
def test_cycle_closures_run_when_the_walks_fall_short(
    gl2, d, cap, status, actual, closed, monkeypatch
):
    """The walk closes its kept blocks (each block that enlarged a span
    seeded with the identity) after every cycle length, and goes on while
    the closure falls short of the commutant: at cap 1 and d = 4 the
    closure reaches 14 only after length 4, and at cap 0 never."""
    em = EvaluationModule([standard_module(gl2)] * d, [Q(i) for i in range(d)])
    fed = _recording_closures(monkeypatch)
    r = check_cycle_generation(em, cap)
    assert (r.status, r.actual) == (status, str(actual))
    assert fed == closed


def test_cycle_closures_are_skipped_once_the_walks_span_the_commutant(gl2, monkeypatch):
    """Once the closure after cycle length 2 reaches the commutant, no
    longer cycle is built and no later closure runs."""
    em = EvaluationModule([standard_module(gl2)] * 4, [Q(i) for i in range(4)])
    fed = _recording_closures(monkeypatch)
    degrees = _recording_degrees(monkeypatch)
    r = check_cycle_generation(em)
    assert r.passed
    assert fed == [(0, 1), (6, 14)]
    assert max(degrees) == 2


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


def _fft_image_count(em, k):
    """The number of degree-k FFT images on the slot basis of the default cap."""
    tensors = [th for th in fft_tensors(em.spec, k) if not th.is_zero()]
    return len(tensors) * len(verify._slot_basis(em, em.d - 1)) ** k


@pytest.mark.parametrize("n", [2, 3])
def test_span_walk_stops_at_the_commutant_dimension(n, monkeypatch):
    """Degree 1 gives the identity only; the degree-2 images (the identity
    and the three transpositions, among others) span 4 dimensions and close
    to the commutant, so the walk takes every image of degree at most 2 and
    stops before degree 3."""
    v = standard_module(build_lie_algebra(GL, n))
    em = EvaluationModule([v] * 3, [Q(0), Q(1), Q(2)])
    degrees = _recording_degrees(monkeypatch)
    r = check_span_surjectivity(em)
    assert (r.status, r.actual) == ("pass", str(commutant_dimension(em.carrier)))
    assert r.parameters["direct_span"] == 4 and r.parameters["product_extended"]
    assert degrees == [1] * _fft_image_count(em, 1) + [2] * _fft_image_count(em, 2)


def test_burnside_walk_stops_once_every_block_is_full(em3, gl2, monkeypatch):
    degrees = _recording_degrees(monkeypatch)
    r = check_isotypic_irreducibility(em3)
    assert r.actual == "mu=(3, 0): 1; mu=(2, 1): 4"
    assert max(degrees) == 2
    # the coincident-point control never fills mu=(2, 1): it walks every
    # degree and still fails
    v = standard_module(gl2)
    coincident = EvaluationModule([v] * 3, [Q(0)] * 3)
    degrees.clear()
    r = check_isotypic_irreducibility(coincident)
    assert r.status == "fail"
    assert degrees == [k for k in (1, 2, 3) for _ in range(_fft_image_count(coincident, k))]


def test_cycle_check_rejects_image_outside_commutant(em3, monkeypatch):
    # a non-commuting matrix put in front of every cycle tensor's images:
    # only the containment scan of the kept images can catch it
    _inject_in_front(monkeypatch, Mat.from_entries(em3.dim, em3.dim, {(0, 1): Q(1)}))
    r = check_cycle_generation(em3)
    assert r.status == "fail"
    assert "; image 0 does not commute with basis element " in r.actual
