"""Reference constructions that the tests compare the library with.

Each follows its definition directly, with no prefix sharing and no
compiled tensor, so it does not share the code paths it checks.
"""

from repcur.currents import InvariantTensor
from repcur.linalg import Mat, lincomb
from repcur.poly import Poly
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
