"""Finite dimensional modules: construction and decomposition.

Irreducible modules are cut out of tensor powers of the standard module by
highest-weight cyclic generation: solve for a highest weight vector (joint
kernel of the raising actions inside the target weight space), then close
under the lowering actions.  One algorithm serves gl, sp and so, whose
realizations all have a rational split Cartan.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .liealg import GL, SO, LieAlgebraSpec
from .linalg import (
    Mat,
    SpanTracker,
    inverse,
    kernel_basis,
    lincomb,
    solve_columns,
    stack_rows,
)
from .rational import ONE

Weight = tuple  # integer tuple in epsilon-coordinates

MAX_DIM_ENV = "REPCUR_MAX_DIM"
DEFAULT_MAX_DIM = 4096


def is_dominant(spec: LieAlgebraSpec, coords: Weight) -> bool:
    """λ_1 >= ... >= λ_m, and further λ_m >= 0 for sp and odd-n so (types C
    and B) or λ_{m-1} >= |λ_m| for even-n so (type D)."""
    coords = tuple(coords)
    if spec.family == SO and spec.n % 2 == 0:
        coords = coords[:-1] + (abs(coords[-1]),)
    elif spec.family != GL and coords and coords[-1] < 0:
        return False
    return all(a >= b for a, b in zip(coords, coords[1:]))


@dataclass
class GModule:
    """A g-module: carrier dimension plus one action matrix per basis element.

    weight_bound caps the absolute value of any Cartan eigenvalue on the
    carrier; it makes exact eigenvalue searches finite.
    """

    spec: LieAlgebraSpec
    dim: int
    actions: list
    weight_bound: int
    label: str = ""
    highest_weight: tuple | None = None

    def action_of(self, coords) -> Mat:
        """Action of the element with the given basis coordinates."""
        return lincomb(zip(coords, self.actions), self.dim, self.dim)

    def check_bracket_compatibility(self) -> bool:
        """action([x,y]) == [action(x), action(y)] on all basis pairs."""
        d = self.spec.dim
        for i in range(d):
            for j in range(d):
                lhs = lincomb(
                    ((c, self.actions[k]) for k, c in self.spec.bracket[(i, j)].items()),
                    self.dim,
                    self.dim,
                )
                if lhs != self.actions[i].commutator(self.actions[j]):
                    return False
        return True


@dataclass
class IsotypicComponent:
    mu: Weight
    multiplicity: int
    hwv_basis: Mat  # columns: basis of the highest weight vectors
    component_basis: Mat  # columns spanning the full isotypic component

    @property
    def irrep_dim(self) -> int:
        return self.component_basis.cols // self.multiplicity


def standard_module(spec: LieAlgebraSpec) -> GModule:
    acts = list(spec.basis)
    hw = (1,) + (0,) * (len(spec.cartan_indices) - 1)
    return GModule(spec, spec.matrix_size, acts, 1, label="V", highest_weight=hw)


def trivial_module(spec: LieAlgebraSpec) -> GModule:
    one = Mat.zeros(1, 1)
    hw = (0,) * len(spec.cartan_indices)
    return GModule(spec, 1, [one] * spec.dim, 0, label="1", highest_weight=hw)


def _promote(a: Mat, dims: list, factor: int) -> Mat:
    """1 ⊗ ... ⊗ a ⊗ ... ⊗ 1 in factor-1-major Kronecker index order."""
    pre = 1
    for d in dims[:factor]:
        pre *= d
    post = 1
    for d in dims[factor + 1 :]:
        post *= d
    df = dims[factor]
    total = pre * df * post
    entries = {}
    for (r, c), v in a.items():
        for p in range(pre):
            base_r = (p * df + r) * post
            base_c = (p * df + c) * post
            for q in range(post):
                entries[(base_r + q, base_c + q)] = v
    return Mat.from_entries(total, total, entries)


def _capped_dimension(dims) -> int:
    """The product of the factor dimensions ``dims``, an iterable, checked
    against the environment variable REPCUR_MAX_DIM (default 4096).  The
    product stops at the first factor over the cap: a long product is slow
    and unprintable."""
    raw = os.environ.get(MAX_DIM_ENV, str(DEFAULT_MAX_DIM)).strip()
    if not raw.isdigit():
        raise ValueError(f"{MAX_DIM_ENV} must be a non-negative integer, got {raw!r}")
    limit = int(raw)
    dims = iter(dims)
    total = 1
    for d in dims:
        total *= d
        if total > limit:
            at_least = "at least " if next(dims, None) is not None else ""
            raise ValueError(
                f"carrier dimension {at_least}{total} exceeds the limit {limit} "
                f"(raise {MAX_DIM_ENV} to override)"
            )
    return total


def tensor_module(factors: list) -> GModule:
    """Tensor product with action x ↦ Σ_i 1⊗...⊗action_i(x)⊗...⊗1.

    The carrier dimension is capped by the environment variable
    REPCUR_MAX_DIM (default 4096), checked before any action is built.
    """
    if not factors:
        raise ValueError("tensor_module needs at least one factor")
    spec = factors[0].spec
    for f in factors:
        if f.spec is not spec and f.spec != spec:
            raise ValueError("tensor factors over different Lie algebras")
    dims = [f.dim for f in factors]
    total = _capped_dimension(dims)
    if len(factors) == 1:
        f = factors[0]
        return GModule(spec, f.dim, list(f.actions), f.weight_bound, f.label)
    actions = [
        lincomb(((ONE, _promote(f.actions[b], dims, i)) for i, f in enumerate(factors)), total, total)
        for b in range(spec.dim)
    ]
    bound = sum(f.weight_bound for f in factors)
    label = "⊗".join(f.label or "?" for f in factors)
    return GModule(spec, total, actions, bound, label)


def _restrict(action: Mat, basis_cols: Mat) -> Mat:
    """Matrix of an operator on the invariant subspace spanned by the columns."""
    return solve_columns(basis_cols, action * basis_cols)


def weight_space(module: GModule, weight: Weight) -> Mat:
    """Column basis of the simultaneous Cartan eigenspace for ``weight``."""
    cartans = module.spec.cartan_indices
    if len(weight) != len(cartans):
        raise ValueError("weight length does not match Cartan rank")
    ident = Mat.identity(module.dim)
    stacked = stack_rows(
        [module.actions[h] - ident.scale(c) for h, c in zip(cartans, weight)]
    )
    cols = kernel_basis(stacked)
    return Mat.from_columns(cols, module.dim)


def weight_decomposition(module: GModule, basis_cols: Mat | None = None):
    """Split a module (or an invariant subspace of it) into weight spaces.

    Returns a list of (weight, column basis in carrier coordinates).
    Recursively splits by each Cartan element; eigenvalues are integers
    bounded by module.weight_bound, so the search is finite and exact.
    """
    cartans = module.spec.cartan_indices
    bound = module.weight_bound
    if basis_cols is None:
        basis_cols = Mat.identity(module.dim)

    pieces = [((), basis_cols)]
    for h in cartans:
        action = module.actions[h]
        new_pieces = []
        for wt, cols in pieces:
            restricted = _restrict(action, cols)
            found = 0
            for c in range(-bound, bound + 1):
                shifted = restricted - Mat.identity(restricted.rows).scale(c)
                ker = kernel_basis(shifted)
                if ker:
                    sub = cols * Mat.from_columns(ker, restricted.rows)
                    new_pieces.append((wt + (c,), sub))
                    found += sub.cols
            if found != cols.cols:
                raise RuntimeError("Cartan action not diagonalizable in bound range")
        pieces = new_pieces
    return pieces


def _lowering_closure(module: GModule, seed_cols: Mat) -> Mat:
    """Close a set of vectors under the lowering actions until stable."""
    lowering = [module.actions[i] for i in module.spec.lowering_indices]
    tracker = SpanTracker(module.dim)
    basis_vectors = []
    frontier = []
    for col in seed_cols.columns():
        if tracker.add(col):
            basis_vectors.append(col)
            frontier.append(col)
    while frontier:
        next_frontier = []
        for v in frontier:
            for low in lowering:
                w = low.apply(v)
                if any(w) and tracker.add(w):
                    basis_vectors.append(w)
                    next_frontier.append(w)
        frontier = next_frontier
    return Mat.from_columns(basis_vectors, module.dim)


def build_irrep(spec: LieAlgebraSpec, lam: Weight, m: int) -> GModule:
    """Construct V(λ) inside the m-th tensor power of the standard module.

    λ is dominant with Σ|λ_i| <= m; V(λ) first occurs in degree Σ|λ_i|.  A
    weight absent from the m-th power (a gl weight with Σλ_i != m, say) is
    rejected when its weight space or its highest weight vectors are empty.
    The highest weight vector is the first kernel vector, in the
    deterministic order produced by rref, of the raising actions restricted
    to the λ weight space; the module is its lowering closure.
    """
    lam = tuple(int(c) for c in lam)
    if len(lam) != len(spec.cartan_indices):
        raise ValueError(f"weight {lam} needs exactly {len(spec.cartan_indices)} entries")
    if not is_dominant(spec, lam):
        raise ValueError(f"weight {lam} not dominant for {spec.family}")
    if sum(map(abs, lam)) > m:
        raise ValueError(f"weight {lam} cannot occur in tensor degree {m}")
    if m == 0:
        return GModule(spec, 1, [Mat.zeros(1, 1) for _ in spec.basis], 0, "V(0)", lam)

    _capped_dimension(itertools.repeat(spec.matrix_size, m))
    ambient = tensor_module([standard_module(spec)] * m)
    wspace = weight_space(ambient, lam)
    if wspace.cols == 0:
        raise ValueError(f"weight {lam} does not occur in V^(x{m})")
    raised = stack_rows(
        [ambient.actions[r] * wspace for r in spec.raising_indices]
    )
    ker = kernel_basis(raised)
    if not ker:
        raise ValueError(f"no highest weight vector of weight {lam} in V^(x{m})")
    hwv = wspace.apply(ker[0])
    basis_cols = _lowering_closure(ambient, Mat.from_columns([hwv], ambient.dim))
    actions = [_restrict(a, basis_cols) for a in ambient.actions]
    return GModule(spec, basis_cols.cols, actions, m, f"V{lam}", lam)


def isotypic_decompose(module: GModule):
    """Isotypic components with explicit highest-weight-vector bases.

    Components are ordered by highest weight, lexicographically descending.
    """
    spec = module.spec
    if module.dim == 0:
        return []
    raising = [module.actions[r] for r in spec.raising_indices]
    if raising:
        ker = kernel_basis(stack_rows(raising))
    else:
        ker = Mat.identity(module.dim).columns()
    hwv_all = Mat.from_columns(ker, module.dim)

    components = []
    covered = 0
    for wt, cols in weight_decomposition(module, hwv_all):
        if not is_dominant(spec, wt):
            raise RuntimeError(f"non-dominant highest weight {wt} found")
        comp_basis = _lowering_closure(module, cols)
        mult = cols.cols
        if comp_basis.cols % mult:
            raise RuntimeError("component dimension not divisible by multiplicity")
        components.append(IsotypicComponent(wt, mult, cols, comp_basis))
        covered += comp_basis.cols
    if covered != module.dim:
        raise RuntimeError("isotypic components do not exhaust the module")
    components.sort(key=lambda c: c.mu, reverse=True)
    return components


def casimir_eigenvalue(spec: LieAlgebraSpec, irrep: GModule):
    """The exact scalar by which Σ_i e_i e^i acts on an irreducible module."""
    products = (a * irrep.action_of(spec.coords(d)) for a, d in zip(irrep.actions, spec.dual_basis))
    total = lincomb(((ONE, m) for m in products), irrep.dim, irrep.dim)
    c = total[0, 0]
    if total != Mat.identity(irrep.dim).scale(c):
        raise ValueError("Casimir operator is not scalar: module is not irreducible")
    return c


# -- commutants -----------------------------------------------------------


def _kernel_combinations(candidates: list, operator: Mat) -> list:
    """Members of span(candidates) commuting with ``operator``.

    candidates are square matrices; returns a new basis of the subspace
    {M in span : [M, operator] = 0}, expressed as matrices again.
    """
    if not candidates:
        return []
    size = candidates[0].rows
    # one linear condition (row) per matrix position where some commutator
    # is nonzero, one column per candidate; the kernel ignores row order
    row_of: dict = {}
    entries = {}
    for col, k in enumerate(candidates):
        for pos, v in k.commutator(operator).items():
            entries[(row_of.setdefault(pos, len(row_of)), col)] = v
    if not row_of:
        return candidates
    coeff_matrix = Mat.from_entries(len(row_of), len(candidates), entries)
    return [lincomb(zip(coeffs, candidates), size, size) for coeffs in kernel_basis(coeff_matrix)]


def commutant_basis(actions: list, carrier: GModule) -> list:
    """Basis of {M : [M, A] = 0 for every A in actions}.

    ``carrier`` is the g-module the actions act on, and its g-action must be
    among them.  The search is seeded from the weight-space block structure
    (a commuting M preserves every weight space), which keeps the linear
    systems small.  A combined operator is intersected first so later
    intersections run in low dimension.
    """
    if not actions:
        raise ValueError("commutant of an empty action list is everything")
    size = actions[0].rows

    pieces = weight_decomposition(carrier)
    t = Mat.from_columns([c for _, piece in pieces for c in piece.columns()], size)
    t_inv = inverse(t)
    work_actions = [t_inv * a * t for a in actions]
    candidates: list[Mat] = []
    offset = 0
    for _, piece in pieces:
        block = range(offset, offset + piece.cols)
        candidates.extend(Mat.from_entries(size, size, {(p, q): 1}) for p in block for q in block)
        offset += piece.cols

    combined = lincomb(((i + 1, a) for i, a in enumerate(work_actions)), size, size)
    candidates = _kernel_combinations(candidates, combined)
    for a in work_actions:
        candidates = _kernel_combinations(candidates, a)
    return [t * m * t_inv for m in candidates]


def commutant_dimension(module: GModule) -> int:
    """dim {M : [M, action(x)] = 0 for all basis x}."""
    return len(commutant_basis(module.actions, carrier=module))
