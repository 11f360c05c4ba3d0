"""Finite dimensional modules: construction and decomposition.

Irreducible modules are cut out of tensor powers of the standard module by
highest-weight cyclic generation: solve for a highest weight vector (joint
kernel of the raising actions inside the target weight space), then close
under the lowering actions.  One algorithm serves gl, sp and so, whose
realizations all have a Cartan that is diagonal in the standard basis.

Every module built here has a basis of weight vectors: the Cartan acts
diagonally, with integer entries, on the carrier.  Weights are read off
those diagonals, so weight spaces, isotypic splitting and the commutant's
block structure need no eigenvalue search.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .liealg import GL, SO, LieAlgebraSpec
from .linalg import (
    Mat,
    SpanTracker,
    kernel_basis,
    lincomb,
    solve_columns,
    stack_rows,
)
from .rational import ONE, exact

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

    The carrier basis is a weight basis: every Cartan action is a diagonal
    matrix with integer entries.
    """

    spec: LieAlgebraSpec
    dim: int
    actions: list
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
    return GModule(spec, spec.matrix_size, acts, label="V", highest_weight=hw)


def trivial_module(spec: LieAlgebraSpec) -> GModule:
    one = Mat.zeros(1, 1)
    hw = (0,) * len(spec.cartan_indices)
    return GModule(spec, 1, [one] * spec.dim, label="1", highest_weight=hw)


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
        return GModule(spec, f.dim, list(f.actions), f.label)
    actions = [
        lincomb(((ONE, _promote(f.actions[b], dims, i)) for i, f in enumerate(factors)), total, total)
        for b in range(spec.dim)
    ]
    label = "⊗".join(f.label or "?" for f in factors)
    return GModule(spec, total, actions, label)


def _carrier_weights(module: GModule) -> list:
    """The weight of each carrier basis vector, a tuple of ints read off the
    diagonals of the Cartan actions.

    Raises ValueError if a Cartan action has an off-diagonal or a
    non-integral entry: then the carrier basis is not a weight basis.
    """
    weights = [[0] * len(module.spec.cartan_indices) for _ in range(module.dim)]
    for k, h in enumerate(module.spec.cartan_indices):
        for (r, c), v in module.actions[h].items():
            v = exact(v)
            if r != c or type(v) is not int:
                raise ValueError(
                    f"Cartan action {h} is not diagonal with integer entries: "
                    f"entry {v} at {(r, c)}"
                )
            weights[r][k] = v
    return [tuple(w) for w in weights]


def weight_decomposition(module: GModule, basis_cols: Mat | None = None):
    """Split a module (or a subspace spanned by weight vectors) into weight
    spaces.

    Returns a list of (weight, column basis in carrier coordinates) in
    ascending weight order.  The columns of each weight space are the given
    columns of that weight in their given order (the unit columns when
    ``basis_cols`` is None).  Relies on the carrier basis being a weight
    basis; a column that mixes weights raises ValueError.
    """
    weights = _carrier_weights(module)
    if basis_cols is None:
        basis_cols = Mat.identity(module.dim)
    columns = [{} for _ in range(basis_cols.cols)]
    for (i, j), v in basis_cols.items():
        columns[j][i] = v
    spaces: dict = {}
    for j, col in enumerate(columns):
        found = {weights[i] for i in col}
        if len(found) != 1:
            raise ValueError(f"column {j} is not a weight vector: weights {sorted(found)}")
        spaces.setdefault(found.pop(), []).append(col)
    pieces = []
    for wt, cols in sorted(spaces.items()):
        entries = {(i, k): v for k, col in enumerate(cols) for i, v in col.items()}
        pieces.append((wt, Mat.from_entries(module.dim, len(cols), entries)))
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
        return GModule(spec, 1, [Mat.zeros(1, 1) for _ in spec.basis], "V(0)", lam)

    _capped_dimension(itertools.repeat(spec.matrix_size, m))
    ambient = tensor_module([standard_module(spec)] * m)
    wspace = dict(weight_decomposition(ambient)).get(lam)
    if wspace is None:
        raise ValueError(f"weight {lam} does not occur in V^(x{m})")
    # with no raising action (gl(1)) every weight vector is highest
    raised = stack_rows((ambient.actions[r] * wspace for r in spec.raising_indices), wspace.cols)
    ker = kernel_basis(raised)
    if not ker:
        raise ValueError(f"no highest weight vector of weight {lam} in V^(x{m})")
    hwv = wspace.apply(ker[0])
    basis_cols = _lowering_closure(ambient, Mat.from_columns([hwv], ambient.dim))
    # each action restricted to the invariant subspace spanned by basis_cols
    actions = [solve_columns(basis_cols, a * basis_cols) for a in ambient.actions]
    return GModule(spec, basis_cols.cols, actions, f"V{lam}", lam)


def isotypic_decompose(module: GModule):
    """Isotypic components with explicit highest-weight-vector bases.

    Components are ordered by highest weight, lexicographically descending.
    """
    spec = module.spec
    if module.dim == 0:
        return []
    # with no raising action (gl(1)) every weight vector is highest
    ker = kernel_basis(stack_rows((module.actions[r] for r in spec.raising_indices), module.dim))
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
    among them.  A commuting M preserves every weight space, and the carrier
    basis is a weight basis, so the search is seeded with the matrix units
    E_pq for carrier indices p, q of equal weight; this keeps the linear
    systems small.  A combined operator is intersected first so later
    intersections run in low dimension.
    """
    if not actions:
        raise ValueError("commutant of an empty action list is everything")
    size = actions[0].rows

    candidates: list[Mat] = []
    for _, space in weight_decomposition(carrier):
        block = [i for (i, _), _ in space.items()]  # the rows of its unit columns
        candidates.extend(Mat.from_entries(size, size, {(p, q): 1}) for p in block for q in block)

    combined = lincomb(((i + 1, a) for i, a in enumerate(actions)), size, size)
    candidates = _kernel_combinations(candidates, combined)
    for a in actions:
        candidates = _kernel_combinations(candidates, a)
    return candidates


def commutant_dimension(module: GModule) -> int:
    """dim {M : [M, action(x)] = 0 for all basis x}."""
    return len(commutant_basis(module.actions, carrier=module))
