"""Finite dimensional modules: construction and decomposition.

Irreducible modules are cut out of tensor powers of the standard module by
highest-weight cyclic generation: solve for a highest weight vector (joint
kernel of the raising actions inside the target weight space), then close
under the lowering actions.  One algorithm serves gl, sp and so, whose
realizations all have a Cartan that is diagonal in the standard basis.

Every module built here has a basis of weight vectors: the Cartan acts
diagonally, with integer entries, on the carrier.  Weights are read off
those diagonals, so weight spaces, isotypic splitting and the commutant's
blocks (the joint eigenspaces of the diagonal actions) need no eigenvalue
search.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .liealg import GL, SO, LieAlgebraSpec
from .linalg import (
    Mat,
    SpanTracker,
    combine,
    kernel_basis,
    lincomb,
    null_space,
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
    highest_weight: tuple | None = None


@dataclass
class IsotypicComponent:
    mu: Weight
    hwv_basis: list  # basis of the highest weight vectors, {index: value} dicts

    @property
    def multiplicity(self) -> int:
        return len(self.hwv_basis)


def standard_module(spec: LieAlgebraSpec) -> GModule:
    acts = list(spec.basis)
    hw = (1,) + (0,) * (len(spec.cartan_indices) - 1)
    return GModule(spec, spec.matrix_size, acts, highest_weight=hw)


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
    data = [{} for _ in range(total)]
    for (r, c), v in a.items():
        for p in range(pre):
            base_r = (p * df + r) * post
            base_c = (p * df + c) * post
            for q in range(post):
                data[base_r + q][base_c + q] = v
    return Mat._of(total, total, data)


def _capped_dimension(dims) -> int:
    """The product of the factor dimensions ``dims``, an iterable, checked
    against the environment variable REPCUR_MAX_DIM (default 4096).  The
    product stops at the first factor over the cap: a long product is slow
    and unprintable."""
    raw = os.environ.get(MAX_DIM_ENV, str(DEFAULT_MAX_DIM)).strip()
    if not raw.isdecimal():
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
    actions = [
        lincomb(((ONE, _promote(f.actions[b], dims, i)) for i, f in enumerate(factors)), total, total)
        for b in range(spec.dim)
    ]
    return GModule(spec, total, actions)


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


def weight_decomposition(module: GModule, vectors=None):
    """Split a module (or a subspace spanned by weight vectors) into weight
    spaces.

    Returns a list of (weight, [vectors]) in ascending weight order, each
    vector an {index: value} dict in carrier coordinates.  The vectors of
    each weight space are the given ``vectors`` of that weight in their
    given order (the unit vectors when ``vectors`` is None).  Relies on the
    carrier basis being a weight basis; a vector that mixes weights raises
    ValueError.
    """
    weights = _carrier_weights(module)
    if vectors is None:
        vectors = ({i: 1} for i in range(module.dim))
    spaces: dict = {}
    for j, v in enumerate(vectors):
        found = {weights[i] for i in v}
        if len(found) != 1:
            raise ValueError(f"column {j} is not a weight vector: weights {sorted(found)}")
        spaces.setdefault(found.pop(), []).append(v)
    return sorted(spaces.items())


def _lowering_closure(module: GModule, seeds) -> list:
    """A basis of the span of the vectors ``seeds`` closed under the
    lowering actions: the seeds that enlarge it, then breadth first each
    lowered vector that does.  Each lowering action is transposed once, so
    lowering a vector reads only the columns in its support."""
    lowering = [module.actions[i].transpose().data for i in module.spec.lowering_indices]
    tracker = SpanTracker(module.dim)
    basis = frontier = [v for v in seeds if tracker.add(v)]
    while frontier:
        frontier = [
            w for v in frontier for low in lowering if (w := combine(v, low)) and tracker.add(w)
        ]
        basis = basis + frontier
    return basis


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
        return GModule(spec, 1, [Mat.zeros(1, 1) for _ in spec.basis], highest_weight=lam)

    _capped_dimension(itertools.repeat(spec.matrix_size, m))
    ambient = tensor_module([standard_module(spec)] * m)
    vectors = dict(weight_decomposition(ambient)).get(lam)
    if vectors is None:
        raise ValueError(f"weight {lam} does not occur in V^(x{m})")
    # with no raising action (gl(1)) every weight vector is highest
    wspace = Mat.from_columns(vectors, ambient.dim)
    raised = stack_rows((ambient.actions[r] * wspace for r in spec.raising_indices), wspace.cols)
    ker = kernel_basis(raised)
    if not ker:
        raise ValueError(f"no highest weight vector of weight {lam} in V^(x{m})")
    hwv = combine(ker[0], vectors)
    basis_cols = Mat.from_columns(_lowering_closure(ambient, [hwv]), ambient.dim)
    # each action restricted to the invariant subspace spanned by basis_cols
    actions = [solve_columns(basis_cols, a * basis_cols) for a in ambient.actions]
    return GModule(spec, basis_cols.cols, actions, highest_weight=lam)


def isotypic_decompose(module: GModule):
    """Isotypic components with explicit highest-weight-vector bases.

    Components are ordered by highest weight, lexicographically descending.
    They must exhaust the module, Σ m_μ · dim V(μ) = dim, where dim V(μ) is
    the dimension of the lowering closure of one highest weight vector.
    """
    spec = module.spec
    if module.dim == 0:
        return []
    # with no raising action (gl(1)) every weight vector is highest
    ker = kernel_basis(stack_rows((module.actions[r] for r in spec.raising_indices), module.dim))

    components = []
    covered = 0
    for wt, vectors in weight_decomposition(module, ker):
        if not is_dominant(spec, wt):
            raise RuntimeError(f"non-dominant highest weight {wt} found")
        components.append(IsotypicComponent(wt, vectors))
        covered += len(vectors) * len(_lowering_closure(module, vectors[:1]))
    if covered != module.dim:
        raise RuntimeError("isotypic components do not exhaust the module")
    components.sort(key=lambda c: c.mu, reverse=True)
    return components


# -- commutants -----------------------------------------------------------


def _commutator_rows(a: Mat, unknown: dict, block_of: list):
    """The conditions [M, a] = 0 on the entries of a block-diagonal M: per
    position (i, j), Σ_{q≈i} a[q, j]·m_iq − Σ_{p≈j} a[i, p]·m_pj, as a
    {unknown index: coefficient} dict, read off the rows of ``a`` with no
    matrix product.  ``unknown`` numbers the pairs (p, q) in one block and
    ``block_of[i]`` lists the carrier indices of i's block."""
    rows: dict = {}
    for q, arow in enumerate(a.data):  # the m_iq a[q, j] of (M a)[i, j]
        for i in block_of[q]:
            k = unknown[i, q]
            for j, x in arow.items():
                rows.setdefault((i, j), {})[k] = x
    for i, arow in enumerate(a.data):  # minus the a[i, p] m_pj of (a M)[i, j]
        for p, x in arow.items():
            for j in block_of[p]:
                row = rows.setdefault((i, j), {})
                k = unknown[p, j]
                row[k] = row.get(k, 0) - x
    # only m_ij gets both terms, a[j, j] − a[i, i], which may cancel
    return ({k: x for k, x in row.items() if x} for row in rows.values())


def commutant_basis(actions: list, carrier: GModule) -> list:
    """Basis of {M : [M, A] = 0 for every A in actions}, for any actions on
    the ``carrier``.

    A diagonal action D gives m_pq (D[q, q] − D[p, p]) = 0, so M is block
    diagonal on the joint eigenspaces of the diagonal actions: the unknowns
    are the entries m_pq with p and q in one block, blocks taken in
    ascending order of their tuple of eigenvalues (the weight, for the
    Cartan of a g-action), and the diagonal actions add no further
    condition.  Every other action contributes one condition per position
    of [M, A] = 0 (``_commutator_rows``), and one reduction solves them
    all.  It stops at rank N − 1 for N unknowns: the identity always
    commutes, so the solutions are then its multiples, which ends every
    irreducible case early.
    """
    if not actions:
        raise ValueError("commutant of an empty action list is everything")
    size = carrier.dim
    for a in actions:
        if a.shape != (size, size):
            raise ValueError(f"action of shape {a.shape} on a carrier of dimension {size}")

    diagonal, others = [], []
    for a in actions:
        (diagonal if all(row.keys() <= {i} for i, row in enumerate(a.data)) else others).append(a)
    blocks: dict = {}  # tuple of diagonal entries -> the carrier indices with it
    for i in range(size):
        blocks.setdefault(tuple(d.data[i].get(i, 0) for d in diagonal), []).append(i)
    unknown: dict = {}  # (p, q) in one block -> its index
    block_of: list = [None] * size
    for _, block in sorted(blocks.items()):
        for p in block:
            block_of[p] = block
            for q in block:
                unknown[p, q] = len(unknown)
    rows = (row for a in others for row in _commutator_rows(a, unknown, block_of))
    pairs = list(unknown)
    return [
        Mat.from_entries(size, size, {pairs[k]: x for k, x in v.items()})
        for v in null_space(rows, len(pairs), max_rank=len(pairs) - 1)
    ]


def commutant_dimension(module: GModule) -> int:
    """dim {M : [M, action(x)] = 0 for all basis x}.  Only the generators
    (``LieAlgebraSpec.generator_indices``) are imposed: by Jacobi, M
    commutes with [A, B] when it commutes with A and B."""
    gens = [module.actions[b] for b in module.spec.generator_indices]
    return len(commutant_basis(gens, carrier=module))
