"""Reference constructions that the tests compare the library with.

Each follows its definition directly, with no prefix sharing and no
compiled tensor, so it does not share the code paths it checks.
"""

from repcur.currents import InvariantTensor
from repcur.linalg import Mat, SpanTracker, lincomb, null_space, rref
from repcur.poly import Poly, lagrange_interpolant
from repcur.rational import Q


def reference_image(theta, polys, em) -> Mat:
    """θ(P_1, ..., P_k) on ``em`` by its monomial expansion:
    Σ_terms c · M_1 M_2 ... M_k, the rightmost factor applying first, where
    M_j = Σ_m coeff_m · b_j(t^m) for the basis element b_j of slot j and
    P_j = Σ_m coeff_m t^m.  An empty word is the identity."""
    polys = list(polys)
    if len(polys) != theta.k:
        raise ValueError(f"arity mismatch: tensor degree {theta.k}, got {len(polys)} polynomials")
    terms = []
    for c, indices in theta.terms:
        word = Mat.identity(em.dim)
        for b, poly in zip(indices, polys):
            letter = lincomb(
                ((a, em.basis_action(b, Poly([0] * m + [1]))) for m, a in poly.monomials()),
                em.dim,
                em.dim,
            )
            word = word * letter
        terms.append((c, word))
    return lincomb(terms, em.dim, em.dim)


def check_bracket_compatibility(module) -> bool:
    """action([x, y]) == [action(x), action(y)] on all basis pairs of a
    g-module."""
    d = module.spec.dim
    for i in range(d):
        for j in range(d):
            lhs = lincomb(
                ((c, module.actions[k]) for k, c in module.spec.bracket[(i, j)].items()),
                module.dim,
                module.dim,
            )
            if lhs != module.actions[i].commutator(module.actions[j]):
                return False
    return True


def casimir_eigenvalue(spec, irrep):
    """The scalar by which Σ_i e_i e^i acts on an irreducible module, from
    its matrices: each e^i acts by the combination of the basis actions
    with its coordinates.  Raises ValueError if the operator is not scalar."""
    n = irrep.dim
    products = (
        a * lincomb(zip(spec.coords(d), irrep.actions), n, n)
        for a, d in zip(irrep.actions, spec.dual_basis)
    )
    total = lincomb(((1, m) for m in products), n, n)
    c = total[0, 0]
    if total != Mat.identity(n).scale(c):
        raise ValueError("Casimir operator is not scalar: module is not irreducible")
    return c


def span_contains(tracker, vec) -> bool:
    """Whether ``vec`` lies in the span of a ``SpanTracker``: reduced
    against its pivot rows, nothing is left."""
    return not tracker._reduce(tracker._sparse(vec))


def scaled(theta, c) -> InvariantTensor:
    """c · θ, term by term, with the zero terms dropped."""
    return InvariantTensor(theta.k, tuple((c * a, idx) for a, idx in theta.terms if c * a))


def is_vector(v) -> bool:
    """The library's vector invariant: an {index: value} dict whose values
    are nonzero and each an int or a ``Q``."""
    return isinstance(v, dict) and all(x and type(x) in (int, Q) for x in v.values())


def commutant_basis_by_weight(actions, carrier) -> list:
    """Basis of {M : [M, A] = 0 for every A in ``actions``}, solved in the
    entries m_pq with p and q of equal total weight, read off the Cartan
    actions of the g-module ``carrier``, with one equation per action and
    matrix position.  Unknowns are numbered by ascending weight, then p,
    then q.  Column (p, q) of the system is E_pq A − A E_pq: row q of A in
    row p, minus column p of A in column q."""
    n = carrier.dim
    weight = [tuple(carrier.actions[h][i, i] for h in carrier.spec.cartan_indices) for i in range(n)]
    pairs = sorted(
        ((p, q) for p in range(n) for q in range(n) if weight[p] == weight[q]),
        key=lambda pq: (weight[pq[0]], pq),
    )
    rows: dict = {}  # (action, i, j) -> {unknown: coefficient}
    for a_index, a in enumerate(actions):
        columns = a.transpose().data
        for k, (p, q) in enumerate(pairs):
            for j, x in a.data[q].items():
                row = rows.setdefault((a_index, p, j), {})
                row[k] = row.get(k, 0) + x
            for i, x in columns[p].items():
                row = rows.setdefault((a_index, i, q), {})
                row[k] = row.get(k, 0) - x
    equations = ({k: x for k, x in row.items() if x} for row in rows.values())
    return [
        Mat.from_entries(n, n, {pairs[k]: x for k, x in v.items()})
        for v in null_space(equations, len(pairs))
    ]


def apply_by_rows(m, vec) -> dict:
    """m times the {index: value} vector ``vec``, row by row: entry i is
    the sum over row i of m."""
    out = {}
    for i, row in enumerate(m.data):
        s = sum(a * vec[j] for j, a in row.items() if j in vec)
        if s:
            out[i] = s
    return out


def lowering_closure_by_rows(module, seeds) -> list:
    """The lowering closure of ``seeds`` breadth first, as
    ``modules._lowering_closure``, each lowered vector computed row by row
    (``apply_by_rows``)."""
    lowering = [module.actions[i] for i in module.spec.lowering_indices]
    tracker = SpanTracker(module.dim)
    basis = frontier = [v for v in seeds if tracker.add(v)]
    while frontier:
        frontier = [
            w for v in frontier for low in lowering if (w := apply_by_rows(low, v)) and tracker.add(w)
        ]
        basis = basis + frontier
    return basis


def slot_basis_by_interpolation(points, cap) -> list:
    """The nonzero rows of the rref of the values of 1, t, ..., t^top at the
    distinct ``points``, top = min(cap, k − 1) for k of them, each
    interpolated back to a polynomial."""
    distinct = list(dict.fromkeys(points))
    top = min(cap, len(distinct) - 1)
    reduced, rank, _ = rref(Mat([[p**m for p in distinct] for m in range(top + 1)]))
    return [
        lagrange_interpolant(distinct, [reduced[i, g] for g in range(len(distinct))])
        for i in range(rank)
    ]
