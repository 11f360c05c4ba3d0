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
import sys
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
from .linalg import Mat, SpanTracker, algebra_closure, rank, rref
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
    the verdict, and the text of ``expected`` and ``actual`` is interned,
    as in ``_texts``."""

    def runner(body):
        @functools.wraps(body)
        def check(*args, **kwargs) -> CheckReport:
            t0 = time.monotonic()
            params, passed, expected, actual = body(*args, **kwargs)
            return CheckReport(
                check_name=name,
                parameters=params,
                status="pass" if passed else "fail",
                expected=sys.intern(str(expected)),
                actual=sys.intern(str(actual)),
                runtime_ms=int((time.monotonic() - t0) * 1000),
            )

        return check

    return runner


def _texts(values) -> tuple:
    """The values as a tuple of interned strings.  Callers may keep the
    reports of many sweeps (perfbench keeps every round's); interned text
    is held once however many reports repeat it."""
    return tuple(sys.intern(str(v)) for v in values)


def _describe(em: EvaluationModule, *keys) -> dict:
    """The named parameters of an evaluation module, in the order given."""
    known = {
        "family": em.spec.family,
        "n": em.spec.n,
        "d": em.d,
        "points": _texts(em.points),
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
        "weights": _texts(lams),
        **_describe(em, "points"),
        "P": _texts(p.coeffs),
        "Q": _texts(q.coeffs),
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
        {"n": n, "k": k, "tau": tuple(tau), **_describe(em, "points")},
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


def _stages(em: EvaluationModule, tensors, tuples):
    """Per tensor degree k = 1, ..., d (the number of factors), the images
    of the nonzero tensors of ``tensors(spec, k)`` at the polynomial tuples
    ``tuples(k)``; nothing is built before its stage is pulled."""
    for k in range(1, em.d + 1):
        thetas = (th for th in tensors(em.spec, k) if not th.is_zero())
        yield itertools.chain.from_iterable(current_images(th, tuples(k), em) for th in thetas)


def _fft_stages(em: EvaluationModule, cap: int):
    """``_stages`` of the FFT tensors on every tuple of slot-basis
    polynomials (``_slot_basis``) for the cap, in ``itertools.product``
    order.  θ is multilinear, so each tensor's images span the same space as
    its images at the monomial tuples (t^{n_1}, ..., t^{n_k}) with every
    n_i ≤ cap."""
    basis = _slot_basis(em, cap)
    return _stages(em, fft_tensors, lambda k: itertools.product(basis, repeat=k))


def _hwv_frame(em: EvaluationModule):
    """``(components, select, hwv)``: the isotypic components of the
    carrier, the N × Σm matrix ``hwv`` of their highest-weight-vector
    columns side by side, and a Σm × N row selector with ``select · hwv``
    the identity.

    The columns come from one kernel reduction (``isotypic_decompose``), so
    each has a 1 in its own free index and 0 in the others: those rows of
    ``hwv`` are the identity.  A commutant element C maps each H_μ into
    itself, C·H = H·B, so its block B, its matrix on the columns of H, is
    the row read-off ``select · C · H``, with no solve.
    """
    comps = isotypic_decompose(em.carrier)
    hwv = Mat.from_columns([c for comp in comps for c in comp.hwv_basis.columns()], em.dim)
    # column j -> a row of hwv that is 1 in column j and 0 elsewhere
    unit = {next(iter(row)): i for i, row in enumerate(hwv.data) if list(row.values()) == [1]}
    if len(unit) != hwv.cols:
        raise RuntimeError("the highest-weight-vector columns have no identity rows")
    return comps, Mat.from_entries(hwv.cols, em.dim, {(j, i): 1 for j, i in unit.items()}), hwv


def _generate(em: EvaluationModule, frame, stages):
    """Walk current images tensor degree by tensor degree, in the
    highest-weight-vector coordinates of ``frame`` (``_hwv_frame``), and
    close what the walk kept.

    Restriction to H = ⊕ H_μ maps the commutant injectively, as an algebra,
    onto ⊕ End(H_μ), of dimension Σ m_μ², the target.  Each image's block is
    walked into a span seeded with the identity; an image whose block
    enlarges the span is kept, and is checked in full to commute with each
    basis action, since restriction is an algebra map only on the
    commutant.  After each stage of ``stages`` (one per tensor degree) the
    kept blocks are closed (``algebra_closure``, bounded by the target), and
    the walk stops once the closure, or within a stage the span, reaches the
    target.  A product of current images is a current image, of the
    decomposable tensor of the summed degree, so the closure consists of
    current images; a closure depends only on the span of its generators,
    so it is the closure of every image walked.

    Returns ``(direct, closure, stray)``: the dimension of the span walked;
    a basis of the closure, as Σm × Σm blocks; and a containment note, empty
    or ``"; image {at} does not commute with basis element {y}"`` for the
    first kept image that leaves the commutant, ``at`` indexing the images
    of all stages in order.  The stop is sound once every kept image is in
    the commutant: their closure is then a subalgebra of the commutant, and
    at the target all of it, so no later image can enlarge it.  (That the
    images not kept commute as well is the commutant lemma for ad-invariant
    tensors, which ``check_commutant`` and the ad-invariance checks verify.)
    """
    comps, select, hwv = frame
    target = sum(comp.multiplicity**2 for comp in comps)
    span, kept = SpanTracker(hwv.cols**2), []  # the closure adds the identity
    span.add(Mat.identity(hwv.cols))
    stray, count = "", itertools.count()
    for images in stages:
        for img, at in zip(images, count):
            if span.add(block := select * img * hwv):
                kept.append(block)
                if not stray and (y := _noncommuting_basis_element(img, em)) is not None:
                    stray = f"; image {at} does not commute with basis element {y}"
            if span.dim == target:
                break
        closure = algebra_closure(kept, hwv.cols, target)
        if len(closure) == target:
            break
    return span.dim, closure, stray


@_check("span_surjectivity")
def check_span_surjectivity(em: EvaluationModule, degree_cap=None):
    """Images of the FFT currents generate the full g-commutant of the module.

    The images, on the slot basis of the cap and of tensor degree at most d
    (the number of factors), are walked degree by degree in
    highest-weight-vector coordinates and closed under products after each
    degree (``_generate``), until the closure reaches Σ m_μ².  ``actual``
    is the closure dimension and ``expected`` the commutant dimension of
    the carrier.  Every kept image must commute with each basis action; the
    ``image {at}`` of a containment failure indexes the images walked.
    ``direct_span`` is the dimension of their linear span at the stop and
    ``product_extended`` says whether the closure exceeds it.
    """
    cap = _default_cap(em, degree_cap)
    if not em.has_distinct_points():
        raise ValueError("span check requires pairwise distinct points")
    expected = commutant_dimension(em.carrier)
    direct, closure, stray = _generate(em, _hwv_frame(em), _fft_stages(em, cap))
    params = {
        **_describe(em, "family", "n", "d", "points"),
        "degree_cap": cap,
        "direct_span": direct,
        "product_extended": len(closure) != direct,
    }
    return params, len(closure) == expected and not stray, expected, f"{len(closure)}{stray}"


@_check("isotypic_irreducibility")
def check_isotypic_irreducibility(em: EvaluationModule, degree_cap=None):
    """Burnside criterion on every multiplicity space: the restricted
    current images must generate the full multiplicity x multiplicity
    matrix algebra.

    The images are walked and closed as in the span check (``_generate``),
    and each component μ reports the dimension of the closure's diagonal
    block on H_μ.  Projection to a block is an algebra map, so that is the
    algebra the images restricted to H_μ generate; it is m² for
    multiplicity m when the component passes.  A kept image outside the
    commutant fails the check with the span check's containment note.
    """
    cap = _default_cap(em, degree_cap)
    params = {
        **_describe(em, "family", "n", "points"),
        "degree_cap": cap,
        **_describe(em, "distinct_points"),
    }
    frame = _hwv_frame(em)
    _, closure, stray = _generate(em, frame, _fft_stages(em, cap))
    comps = frame[0]
    ends = list(itertools.accumulate(comp.multiplicity for comp in comps))
    blocks = map(range, [0, *ends], ends)  # each component's rows and columns in H
    dims = [rank(Mat([[b[i, j] for i in r for j in r] for b in closure])) for r in blocks]
    ok = not stray and dims == [comp.multiplicity**2 for comp in comps]
    expected = "; ".join(f"mu={comp.mu}: {comp.multiplicity**2}" for comp in comps)
    actual = "; ".join(f"mu={comp.mu}: {dim}" for comp, dim in zip(comps, dims))
    return params, ok, expected, actual + stray


@_check("cycle_generation")
def check_cycle_generation(em: EvaluationModule, degree_cap=None):
    """The cycle currents alone generate the commutant algebra (gl only).

    The cycle images on the slot basis of the cap span the same space as
    the images at all monomial degree tuples.  They are walked and closed as
    in the span check (``_generate``), grouped by cycle length, which is
    their tensor degree: the walk stops once the closure reaches the
    commutant, and every kept image must commute with each basis action.
    Also records, informationally, the closure dimension of the images at
    the weakly increasing monomial degree tuples alone
    (``sorted_tuple_closure_dim``), built lazily and walked the same way;
    a containment note of that walk never changes the verdict.
    """
    if em.spec.family != GL:
        raise ValueError("cycle generation is a gl-family check")
    cap = _default_cap(em, degree_cap)
    if not em.has_distinct_points():
        raise ValueError("cycle generation requires pairwise distinct points")
    expected = commutant_dimension(em.carrier)
    frame = _hwv_frame(em)
    cycle = functools.cache(lambda spec, k: [theta_sigma(Permutation.cycle(k), spec)])
    basis = _slot_basis(em, cap)
    slot_stages = _stages(em, cycle, lambda k: itertools.product(basis, repeat=k))
    _, closure, stray = _generate(em, frame, slot_stages)
    monomials = [Poly.monomial(m) for m in range(cap + 1)]
    sorted_stages = _stages(  # at the weakly increasing tuples
        em, cycle, lambda k: itertools.combinations_with_replacement(monomials, k)
    )
    params = {
        **_describe(em, "n", "d", "points"),
        "degree_cap": cap,
        "sorted_tuple_closure_dim": len(_generate(em, frame, sorted_stages)[1]),
    }
    return params, len(closure) == expected and not stray, expected, f"{len(closure)}{stray}"


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
