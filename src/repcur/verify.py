"""Executable checks: every claimed identity becomes an exact pass/fail.

Each check returns a CheckReport whose status depends only on rational
equalities and dimension counts; there are no tolerances anywhere.
Negative controls (a non-invariant probe tensor, coincident evaluation
points) are first-class so that sign-convention drift fails loudly.

Every check is a body decorated with ``_check``, the one runner: the body
returns ``(params, passed, expected, actual)`` and the runner times it and
builds the report.  Invalid input raises ``ValueError`` before a verdict.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from dataclasses import dataclass

from .currents import (
    EvaluationModule,
    InvariantTensor,
    current_images,
    invariant_operator_matrix,
)
from .invariants import (
    Permutation,
    casimir_tensor,
    fft_tensors,
    schur_weyl_polys,
    theta_sigma,
)
from .liealg import GL, SO, SP, LieAlgebraSpec, build_lie_algebra
from .linalg import Mat, SpanTracker, algebra_closure, rref, solve_columns
from .modules import (
    build_irrep,
    casimir_eigenvalue,
    commutant_basis,
    commutant_dimension,
    isotypic_decompose,
    standard_module,
)
from .poly import Poly, lagrange_interpolant
from .rational import Q


@dataclass
class CheckReport:
    check_name: str
    parameters: dict
    status: str  # "pass" | "fail"
    expected: str
    actual: str
    runtime_ms: int

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _check(name: str):
    """Turn a check body into a check: the body returns
    ``(params, passed, expected, actual)``; the clock runs from the call to
    the verdict."""

    def runner(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckReport:
            t0 = time.monotonic()
            params, passed, expected, actual = body(*args, **kwargs)
            return CheckReport(
                check_name=name,
                parameters=params,
                status="pass" if passed else "fail",
                expected=str(expected),
                actual=str(actual),
                runtime_ms=int((time.monotonic() - t0) * 1000),
            )

        return check

    return runner


def _describe(em: EvaluationModule, *keys) -> dict:
    """The named parameters of an evaluation module, in the order given."""
    known = {
        "family": em.spec.family,
        "n": em.spec.n,
        "d": em.d,
        "points": [str(p) for p in em.points],
        "distinct_points": em.has_distinct_points(),
    }
    return {key: known[key] for key in keys}


# -- Lemma-level checks ---------------------------------------------------


def ad_invariance_defect(theta: InvariantTensor, spec: LieAlgebraSpec):
    """First basis element whose adjoint action fails to kill theta, or None."""
    for y in range(spec.dim):
        acc: dict = {}
        for c, idx in theta.terms:
            for pos, b in enumerate(idx):
                for bnew, cb in spec.bracket[(y, b)].items():
                    key = idx[:pos] + (bnew,) + idx[pos + 1 :]
                    acc[key] = acc.get(key, 0) + c * cb
        if any(acc.values()):
            return y
    return None


@_check("ad_invariance")
def check_ad_invariance(theta: InvariantTensor, spec: LieAlgebraSpec):
    defect = ad_invariance_defect(theta, spec)
    return (
        {"family": spec.family, "n": spec.n, "k": theta.k},
        defect is None,
        "[y, theta] = 0 for every basis y",
        "holds" if defect is None else f"nonzero against basis element {defect}",
    )


@_check("ad_invariance_family")
def check_ad_invariance_family(spec: LieAlgebraSpec, k: int):
    """Every nonzero FFT tensor of degree k is ad-invariant; stops at the
    first defect, so ``tensors`` counts the tensors examined."""
    bad = None
    count = 0
    for th in fft_tensors(spec, k):
        if th.is_zero():
            continue
        count += 1
        bad = ad_invariance_defect(th, spec)
        if bad is not None:
            break
    return (
        {"family": spec.family, "n": spec.n, "k": k, "tensors": count},
        bad is None,
        "all FFT tensors annihilated by the adjoint action",
        "holds" if bad is None else f"defect at basis {bad}",
    )


def _noncommuting_basis_element(op: Mat, em: EvaluationModule):
    """First basis element y with [y, op] != 0 on the module, or None."""
    for y, action in enumerate(em.carrier.actions):
        if not action.commutator(op).is_zero():
            return y
    return None


@_check("commutant")
def check_commutant(theta: InvariantTensor, polys, em: EvaluationModule):
    """[g, theta(P_1, ..., P_k)] = 0 on the evaluation module."""
    params = {**_describe(em, "family", "n"), "k": theta.k, **_describe(em, "points")}
    op = invariant_operator_matrix(theta, list(polys), em)
    bad = _noncommuting_basis_element(op, em)
    return (
        params,
        bad is None,
        "operator commutes with every basis action",
        "commutes" if bad is None else f"nonzero commutator with basis element {bad}",
    )


# -- Casimir ---------------------------------------------------------------


def casimir_scalar(spec: LieAlgebraSpec, mu, cache: dict):
    """C_mu: the scalar of the Casimir on V(mu), built in tensor degree
    Σ|mu_i| independently of the module under test; ``cache`` holds the
    scalars already computed, keyed by (family, n, mu)."""
    key = (spec.family, spec.n, tuple(mu))
    if key not in cache:
        cache[key] = casimir_eigenvalue(spec, build_irrep(spec, mu, sum(map(abs, mu))))
    return cache[key]


@_check("casimir_formula")
def check_casimir_formula(em: EvaluationModule, p: Poly, q: Poly, casimir_cache=None):
    """Omega(P, Q) acts on each isotypic component W[mu] by the two-point
    scalar w1 z1 C_{l1} + w2 z2 C_{l2} + (w1 z2 + w2 z1)/2 (C_mu - C_{l1} - C_{l2}).
    A sweep passes one ``casimir_cache`` to share the scalars C_mu between checks."""
    cache = {} if casimir_cache is None else casimir_cache
    if em.d != 2:
        raise ValueError("the two-point Casimir formula needs exactly two factors")
    if not em.has_distinct_points():
        raise ValueError("points must be distinct")
    lams = [f.highest_weight for f in em.factors]
    if any(l is None for l in lams):
        raise ValueError("the Casimir formula needs irreducible factors with highest weights")
    spec = em.spec
    params = {
        **_describe(em, "family", "n"),
        "weights": [str(l) for l in lams],
        **_describe(em, "points"),
        "P": list(map(str, p.coeffs)),
        "Q": list(map(str, q.coeffs)),
    }

    w1, w2 = p(em.points[0]), p(em.points[1])
    z1, z2 = q(em.points[0]), q(em.points[1])
    c1 = casimir_scalar(spec, lams[0], cache)
    c2 = casimir_scalar(spec, lams[1], cache)
    op = invariant_operator_matrix(casimir_tensor(spec), [p, q], em)

    observed = []
    ok = True
    for comp in isotypic_decompose(em.carrier):
        cmu = casimir_scalar(spec, comp.mu, cache)
        scalar = w1 * z1 * c1 + w2 * z2 * c2 + Q(w1 * z2 + w2 * z1, 2) * (
            cmu - c1 - c2
        )
        basis = comp.component_basis
        if op * basis != basis.scale(scalar):
            ok = False
        observed.append(f"mu={comp.mu}: {scalar}")
    return (
        params,
        ok,
        "; ".join(observed),
        "; ".join(observed) if ok else "operator deviates from the scalar",
    )


# -- Schur-Weyl -----------------------------------------------------------


def place_permutation_matrix(perm: Permutation, n: int, k: int) -> Mat:
    """The place-permutation action on the k-th tensor power of C^n."""
    dim = n**k
    entries = {}
    inv = perm.inverse()
    for idx in itertools.product(range(n), repeat=k):
        tgt = tuple(idx[inv(j) - 1] for j in range(1, k + 1))
        r = 0
        for t in tgt:
            r = r * n + t
        c = 0
        for t in idx:
            c = c * n + t
        entries[(r, c)] = 1
    return Mat.from_entries(dim, dim, entries)


def _standard_power_shape(em: EvaluationModule):
    """(n, k) of a k-th tensor power of the standard gl(n) module; any
    other module raises ValueError."""
    spec = em.spec
    if spec.family != GL or any(f.actions != list(spec.basis) for f in em.factors):
        raise ValueError("the Schur-Weyl checks need a tensor power of the standard gl(n) module")
    return spec.n, em.d


def transposition_preimage_matrix(tau, em: EvaluationModule) -> Mat:
    """Matrix of Sum_ij E_ij(P_tau) E_ji(Q_tau) on a power of the standard
    gl(n) module; ``schur_weyl_polys`` rejects coincident points."""
    p_tau, q_tau = schur_weyl_polys(tau, em.points, em.d)
    swap_tensor = theta_sigma(Permutation((2, 1)), em.spec)
    return invariant_operator_matrix(swap_tensor, [p_tau, q_tau], em)


@_check("schur_weyl")
def check_schur_weyl(tau, em: EvaluationModule):
    """The preimage of the transposition tau acts on the k-th power of the
    standard gl(n) module ``em`` as its place permutation."""
    n, k = _standard_power_shape(em)
    got = transposition_preimage_matrix(tau, em)
    want = place_permutation_matrix(Permutation.transposition(k, *tau), n, k)
    return (
        {"n": n, "k": k, "tau": list(tau), **_describe(em, "points")},
        got == want,
        f"place permutation matrix of {tuple(tau)}",
        "matches entrywise" if got == want else "differs",
    )


@_check("schur_weyl_composition")
def check_schur_weyl_composition(em: EvaluationModule):
    """Products of transposition preimages equal preimages of the products,
    on the k-th power of the standard gl(n) module ``em``; k < 2 has no
    transposition and raises ValueError."""
    n, k = _standard_power_shape(em)
    if k < 2:
        raise ValueError(f"composition needs at least two tensor factors, got k = {k}")
    taus = [(r, s) for r in range(1, k + 1) for s in range(r + 1, k + 1)]
    images = {tau: transposition_preimage_matrix(tau, em) for tau in taus}
    ok = True
    for t1 in taus:
        for t2 in taus:
            composed = Permutation.transposition(k, *t1) * Permutation.transposition(
                k, *t2
            )
            if images[t1] * images[t2] != place_permutation_matrix(composed, n, k):
                ok = False
    return (
        {"n": n, "k": k, **_describe(em, "points")},
        ok,
        "preimage products realize composed permutations",
        "holds" if ok else "violated",
    )


# -- spanning / irreducibility --------------------------------------------


def _default_cap(em: EvaluationModule, degree_cap) -> int:
    cap = em.d - 1 if degree_cap is None else int(degree_cap)
    if cap < 0:
        raise ValueError(f"the degree cap must be non-negative, got {cap}")
    return cap


def _slot_basis(em: EvaluationModule, cap: int) -> list:
    """Reduced basis of span{1, t, ..., t^cap} as functions on the points.

    The action b(P) depends on P only through its values P(p_i), so any
    polynomials with the same span of value vectors give the same span of
    current images.  The nonzero rows of the rref of the monomial values at
    the distinct points, in order of first appearance, are interpolated
    back to polynomials.  With cap = d − 1 on distinct points these are the
    Lagrange indicators L_f(p_g) = δ_fg, each acting as one promoted factor
    action; at coincident points the basis is the constant 1.
    """
    distinct = list(dict.fromkeys(em.points))
    reduced, rank, _ = rref(Mat([[p**m for p in distinct] for m in range(cap + 1)]))
    return [
        lagrange_interpolant(distinct, [reduced[i, g] for g in range(len(distinct))])
        for i in range(rank)
    ]


def _slot_images(em: EvaluationModule, thetas, cap: int):
    """theta(P_1, ..., P_k) for each tensor of ``thetas``, at every tuple of
    slot-basis polynomials (``_slot_basis``) for the cap, in
    ``itertools.product`` order."""
    basis = _slot_basis(em, cap)
    for th in thetas:
        yield from current_images(th, itertools.product(basis, repeat=th.k), em)


def fft_current_images(em: EvaluationModule, degree_cap: int):
    """Matrices of theta(P_1, ..., P_k) over the FFT generators: tensor
    degrees k = 1..d (the number of factors) on the slot basis of the cap
    (``_slot_images``).  θ is multilinear, so each tensor's images span the
    same space as its images at the monomial tuples (t^{n_1}, ..., t^{n_k})
    with every n_i ≤ degree_cap."""
    thetas = (
        th for k in range(1, em.d + 1) for th in fft_tensors(em.spec, k) if not th.is_zero()
    )
    return _slot_images(em, thetas, degree_cap)


def _commutant_walk(em: EvaluationModule, images, expected: int):
    """Walk ``images`` into a span seeded with the identity, stopping once
    it reaches ``expected``, the commutant dimension, and close what it kept.

    Returns ``(direct, closure, stray)``: the dimension of the span walked;
    the dimension of the algebra the kept images (the identity, then each
    image that enlarged the span) generate; and a containment note, empty or
    ``"; image {at} does not commute with basis element {y}"`` for the
    first kept image that leaves the commutant, ``at`` indexing ``images``.
    Every kept image is checked, so the stop is sound: kept images inside
    the commutant that span ``expected`` dimensions span all of it, and no
    image after the stop can enlarge a span that is already the commutant.
    (That those images commute as well is the commutant lemma for
    ad-invariant tensors, which ``check_commutant`` and the ad-invariance
    checks verify.)  The commutant is an algebra, so such a span is its
    own closure and no product is formed.  Otherwise the kept images are
    closed (``algebra_closure``): a closure depends only on the span of its
    generators, so this is the closure of every image walked, which is
    every image unless a stray was kept and the span still reached
    ``expected`` (then the walk stopped there).
    """
    tracker = SpanTracker(em.dim * em.dim)
    kept = [Mat.identity(em.dim)]
    tracker.add(kept[0])
    kept_at = []
    for i, img in enumerate(images):
        if tracker.add(img):
            kept.append(img)
            kept_at.append(i)
        if tracker.dim == expected:
            break
    stray = ""
    for at, img in zip(kept_at, kept[1:]):
        y = _noncommuting_basis_element(img, em)
        if y is not None:
            stray = f"; image {at} does not commute with basis element {y}"
            break
    if tracker.dim == expected and not stray:
        return expected, expected, stray
    return tracker.dim, len(algebra_closure(kept, em.dim)), stray


@_check("span_surjectivity")
def check_span_surjectivity(em: EvaluationModule, degree_cap=None):
    """Images of the FFT currents generate the full g-commutant of the module.

    The direct enumeration (``fft_current_images``, on the slot basis of
    the cap) stops at tensor degree d (number of factors), and earlier,
    at the first image that brings the span to the commutant dimension
    (``_commutant_walk``); when the whole enumeration falls short, or a
    kept image strays, the kept images are closed under products
    (``algebra_closure``).  A
    product of current images is itself a current image, of the
    decomposable invariant tensor of the summed degree, so the closure
    still consists of FFT-current images only.  Containment is checked
    too: every kept image must commute with each basis action, and the
    kept images span every image built.  The ``image {at}`` of a
    containment failure indexes that enumeration; ``direct_span`` is the
    dimension of the linear span and ``product_extended`` says whether the
    closure exceeds it.
    """
    cap = _default_cap(em, degree_cap)
    if not em.has_distinct_points():
        raise ValueError("span check requires pairwise distinct points")
    expected = commutant_dimension(em.carrier)
    direct, actual, stray = _commutant_walk(em, fft_current_images(em, cap), expected)
    params = {
        **_describe(em, "family", "n", "d", "points"),
        "degree_cap": cap,
        "direct_span": direct,
        "product_extended": actual != direct,
    }
    return params, actual == expected and not stray, expected, f"{actual}{stray}"


@_check("isotypic_irreducibility")
def check_isotypic_irreducibility(em: EvaluationModule, degree_cap=None):
    """Burnside criterion on every multiplicity space: the restricted
    current images must generate the full multiplicity x multiplicity
    matrix algebra.

    Each image is built once and compressed (``solve_columns``) to the
    highest-weight-vector block of every component, which fails unless
    the image preserves the block.  Per component only the restricted
    images that enlarge their linear span are kept, and the walk stops once
    every component's span is its whole matrix algebra, m² for
    multiplicity m.  The closure depends only on the span of its
    generators, so closing the kept images gives the dimension that
    closing all of them would.
    """
    cap = _default_cap(em, degree_cap)
    params = {
        **_describe(em, "family", "n", "points"),
        "degree_cap": cap,
        **_describe(em, "distinct_points"),
    }
    comps = isotypic_decompose(em.carrier)
    spans = [SpanTracker(comp.multiplicity**2) for comp in comps]
    kept = [[] for _ in comps]
    for img in fft_current_images(em, cap):
        for comp, span, gens in zip(comps, spans, kept):
            block = solve_columns(comp.hwv_basis, img * comp.hwv_basis)
            if span.add(block):
                gens.append(block)
        if all(span.dim == span.length for span in spans):
            break
    expected_bits = []
    actual_bits = []
    ok = True
    for comp, gens in zip(comps, kept):
        closure_dim = len(algebra_closure(gens, comp.multiplicity))
        want = comp.multiplicity**2
        expected_bits.append(f"mu={comp.mu}: {want}")
        actual_bits.append(f"mu={comp.mu}: {closure_dim}")
        if closure_dim != want:
            ok = False
    return params, ok, "; ".join(expected_bits), "; ".join(actual_bits)


@_check("cycle_generation")
def check_cycle_generation(em: EvaluationModule, degree_cap=None):
    """The cycle currents alone generate the commutant algebra (gl only).

    The full closure is generated by the cycle images on the slot basis of
    the cap (``_slot_images``), which span the same space as the images at
    all monomial degree tuples.  They are walked and closed as in the span
    check (``_commutant_walk``): the walk stops once their linear span
    reaches the commutant dimension, and every kept image must commute with
    each basis action.  Also records, informationally, the closure
    dimension of the images at the weakly increasing monomial degree
    tuples alone (``sorted_tuple_closure_dim``), built lazily and walked
    the same way, so their walk stops too; a containment note of that walk
    only means its kept images are closed, and never changes the verdict.
    """
    if em.spec.family != GL:
        raise ValueError("cycle generation is a gl-family check")
    cap = _default_cap(em, degree_cap)
    if not em.has_distinct_points():
        raise ValueError("cycle generation requires pairwise distinct points")
    expected = commutant_dimension(em.carrier)

    thetas = [theta_sigma(Permutation.cycle(j), em.spec) for j in range(1, em.d + 1)]
    _, actual, stray = _commutant_walk(em, _slot_images(em, thetas, cap), expected)
    monomials = [Poly.monomial(m) for m in range(cap + 1)]
    sorted_images = itertools.chain.from_iterable(  # at the weakly increasing tuples
        current_images(th, itertools.combinations_with_replacement(monomials, th.k), em)
        for th in thetas
    )
    params = {
        **_describe(em, "n", "d", "points"),
        "degree_cap": cap,
        "sorted_tuple_closure_dim": _commutant_walk(em, sorted_images, expected)[1],
    }
    return params, actual == expected and not stray, expected, f"{actual}{stray}"


def evaluation_commutant_dimension(em: EvaluationModule, degree_cap=None) -> int:
    """dim of the commutant of the full g[t]-action (degrees up to the cap).

    The actions are taken on the slot basis of the cap (``_slot_basis``),
    whose value vectors span those of the monomials, so the commutant is
    the same."""
    basis = _slot_basis(em, _default_cap(em, degree_cap))
    actions = [em.basis_action(b, poly) for b in range(em.spec.dim) for poly in basis]
    return len(commutant_basis(actions, em.carrier))


@_check("evaluation_irreducibility")
def check_evaluation_irreducibility(em: EvaluationModule, degree_cap=None):
    """Distinct points make the evaluation module irreducible over g[t]
    (commutant dimension one, by Schur)."""
    actual = evaluation_commutant_dimension(em, degree_cap)
    params = _describe(em, "family", "n", "d", "points", "distinct_points")
    return params, actual == 1, 1, actual


# -- full acceptance sweep ------------------------------------------------


def _negated(report: CheckReport, label: str) -> CheckReport:
    """Wrap a negative control: the wrapped check is expected to fail."""
    return CheckReport(
        check_name=f"{report.check_name}_control",
        parameters={**report.parameters, "control": label},
        status="pass" if report.status == "fail" else "fail",
        expected=f"underlying check fails ({label})",
        actual=f"underlying check reported {report.status}",
        runtime_ms=report.runtime_ms,
    )


def _random_poly(rng: random.Random, max_degree: int) -> Poly:
    coeffs = [Q(rng.randint(-3, 3)) for _ in range(max_degree + 1)]
    coeffs[-1] = Q(rng.choice([1, 2, -1]))  # keep the degree honest
    return Poly(coeffs)


def run_acceptance_suite(seed: int = 0, profile: str = "desk"):
    """All checks, across families and sizes, tagged by criterion.

    profile "desk" covers the full size grid; "quick" shrinks it to the
    smallest instances (used, twice, by the determinism test).
    """
    if profile not in ("desk", "quick"):
        raise ValueError(f"unknown profile {profile!r}")
    rng = random.Random(seed)
    full = profile == "desk"
    reports: list[CheckReport] = []
    casimir_cache: dict = {}

    def add(criterion: str, report: CheckReport):
        report.parameters["criterion"] = criterion
        reports.append(report)

    specs = {
        (GL, 2): build_lie_algebra(GL, 2),
        (SP, 1): build_lie_algebra(SP, 1),
        (SO, 3): build_lie_algebra(SO, 3),
    }
    if full:
        specs[(GL, 3)] = build_lie_algebra(GL, 3)
        specs[(SO, 4)] = build_lie_algebra(SO, 4)

    def standard_em(fam: str, n: int, d: int, points=None) -> EvaluationModule:
        """d copies of the standard module, at the points 0, ..., d-1 by default."""
        V = standard_module(specs[(fam, n)])
        return EvaluationModule([V] * d, points or [Q(i) for i in range(d)])

    # 1. ad-invariance of every FFT tensor (and the Casimir), plus a
    #    deliberately non-invariant probe that must be flagged.
    ad_grid = [(GL, 2, 3), (SP, 1, 2), (SO, 3, 2)]
    if full:
        ad_grid += [(GL, 3, 3), (SO, 4, 2)]
    for fam, n, kmax in ad_grid:
        spec = specs[(fam, n)]
        add("ad_invariance", check_ad_invariance(casimir_tensor(spec), spec))
        for k in range(1, kmax + 1):
            add("ad_invariance", check_ad_invariance_family(spec, k))
    probe = InvariantTensor.from_dict(2, {(1, 1): Q(1)})  # E_12 (x) E_12 in gl(2)
    add(
        "ad_invariance",
        _negated(check_ad_invariance(probe, specs[(GL, 2)]), "non-invariant probe"),
    )

    # 2. commutation of current operators with the algebra action.
    for fam, n in ([(GL, 2), (SP, 1), (SO, 3)] + ([(GL, 3)] if full else [])):
        spec = specs[(fam, n)]
        em = standard_em(fam, n, 2)
        polys = [_random_poly(rng, 1), _random_poly(rng, 1)]
        add("commutant", check_commutant(casimir_tensor(spec), polys, em))
        k = 2 if fam == GL else 1
        for th in fft_tensors(spec, k)[: 3 if full else 1]:
            if th.is_zero():
                continue
            add(
                "commutant",
                check_commutant(th, [_random_poly(rng, 2) for _ in range(th.k)], em),
            )

    # 3. the two-point Casimir eigenvalue formula, on standard and
    #    non-standard factors, with random polynomial pairs.
    casimir_ems = [standard_em(GL, 2, 2), standard_em(SP, 1, 2)]
    if full:
        spec = specs[(GL, 2)]
        W = build_irrep(spec, (2, 0), 2)
        casimir_ems.append(EvaluationModule([W, standard_module(spec)], [Q(1, 2), Q(-2)]))
    for em in casimir_ems:
        add(
            "casimir_formula",
            check_casimir_formula(
                em, _random_poly(rng, 2), _random_poly(rng, 2), casimir_cache=casimir_cache
            ),
        )

    # 4. Schur-Weyl transposition preimages, including composition.
    sw_grid = [(2, 2), (2, 3)] + ([(3, 2), (3, 3)] if full else [])
    for n, k in sw_grid:
        em = standard_em(GL, n, k)
        for r in range(1, k + 1):
            for s in range(r + 1, k + 1):
                add("schur_weyl", check_schur_weyl((r, s), em))
        add("schur_weyl", check_schur_weyl_composition(em))
    add(
        "schur_weyl",
        check_schur_weyl((1, 2), standard_em(GL, 2, 3, [Q(0), Q(1, 2), Q(7, 3)])),
    )

    # 5. the current images span the commutant of the g-action.
    span_grid = [(GL, 2, 2), (SP, 1, 2), (SO, 3, 2)]
    if full:
        span_grid += [(GL, 2, 3), (GL, 3, 3)]
    for fam, n, d in span_grid:
        add("span_surjectivity", check_span_surjectivity(standard_em(fam, n, d)))

    # 6. Burnside irreducibility on every isotypic multiplicity space.
    iso_grid = [(GL, 2, 3)]
    if full:
        iso_grid += [(SP, 1, 2)]
    for fam, n, d in iso_grid:
        add(
            "isotypic_irreducibility",
            check_isotypic_irreducibility(standard_em(fam, n, d)),
        )
    add(
        "isotypic_irreducibility",
        _negated(
            check_isotypic_irreducibility(standard_em(GL, 2, 3, [Q(0)] * 3)),
            "coincident points",
        ),
    )
    if full:
        spec = specs[(GL, 2)]
        V = standard_module(spec)
        em = EvaluationModule([build_irrep(spec, (2, 0), 2), V, V], [Q(0), Q(1), Q(2)])
        add("isotypic_irreducibility", check_isotypic_irreducibility(em))

    # 7. the cycle currents alone generate the commutant algebra.
    cyc_grid = [(2, 2)] + ([(2, 3)] if full else [])
    for n, d in cyc_grid:
        add("cycle_generation", check_cycle_generation(standard_em(GL, n, d)))

    # 8. evaluation modules at distinct points are irreducible over g[t];
    #    coincident points break this (negative control).
    ev_grid = [(GL, 2, 2), (GL, 2, 3), (SP, 1, 2)]
    if full:
        ev_grid += [(GL, 3, 3), (SO, 3, 2)]
    for fam, n, d in ev_grid:
        add(
            "evaluation_irreducibility",
            check_evaluation_irreducibility(standard_em(fam, n, d)),
        )
    add(
        "evaluation_irreducibility",
        _negated(
            check_evaluation_irreducibility(standard_em(GL, 2, 3, [Q(0)] * 3)),
            "coincident points",
        ),
    )

    return reports
