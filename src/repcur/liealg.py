"""The classical matrix Lie algebra families gl(n), sp(2n), so(n).

Each family is realized by explicit basis matrices, with the bracket table,
the trace form ⟨x, y⟩ = tr(xy), trace-form dual bases, and the index sets of
Cartan, raising and lowering basis elements of a rational split Cartan.

Realizations: gl(n) is all n x n matrices, basis {E_ij}.  sp(2n) and so(n)
are the X with X^T F + F X = 0 for the antidiagonal form F = form_matrix
(Jhat = [[0, J], [-J, 0]] for sp, J for so, J the antidiagonal of ones),
that is the fixed points of the involution θ(X) = -F^{-1} X^T F.  Their
basis is one rule: E_ij + θ(E_ij) for i + j <= N + 1 (N x N matrices),
skipped when zero and scaled to 1 at (i, j).  Diagonal elements, such as
diag(a_1..a_m, (0), -a_m..-a_1), are the Cartan; upper triangular ones
raise and lower triangular ones lower.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .linalg import Mat, inverse, lincomb
from .rational import ONE

GL = "gl"
SP = "sp"
SO = "so"

FAMILIES = (GL, SP, SO)


def sign_function(n: int, i: int) -> int:
    """The symplectic sign s(i): +1 for 1 <= i <= n, -1 for i > n."""
    if not 1 <= i <= 2 * n:
        raise ValueError(f"index {i} out of range for sign function of size {2*n}")
    return 1 if i <= n else -1


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A classical Lie algebra with all derived structure precomputed."""

    family: str
    n: int
    matrix_size: int
    basis: tuple
    bracket: dict = field(compare=False)
    dual_basis: tuple = field(compare=False)
    cartan_indices: tuple
    raising_indices: tuple
    lowering_indices: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _simple(self, indices) -> tuple:
        """The indices among ``indices`` that occur in no bracket of two of
        them: the simple root vectors when ``indices`` are the raising (or
        the lowering) ones.  This finds the root e_{m-1} + e_m of so(2m)
        too, off the superdiagonal."""
        made = {k for a in indices for b in indices for k in self.bracket[(a, b)]}
        return tuple(i for i in indices if i not in made)

    @cached_property
    def borel_indices(self) -> tuple:
        """The Cartan indices, then the simple raising ones: generators of
        the Borel subalgebra b.  On a finite-dimensional module with a
        weight basis that is a direct sum of irreducibles (every module the
        library builds) a matrix commuting with b commutes with g, End_b =
        End_g.  A nonzero b-map V(λ) → V(μ) keeps weights, so w₀λ is a
        weight of V(μ) and λ ≤ μ; its image, a b-submodule, holds the
        highest weight vector of V(μ), so μ ≤ λ.  At λ = μ it is fixed by
        the image of the lowest weight vector, which generates V(λ) under
        b, so it is a scalar."""
        return self.cartan_indices + self._simple(self.raising_indices)

    @cached_property
    def generator_indices(self) -> tuple:
        """``borel_indices``, then the simple lowering indices: the
        Chevalley generators, which generate the algebra under brackets."""
        return self.borel_indices + self._simple(self.lowering_indices)

    def coords(self, x: Mat) -> list:
        """Coordinates of x in the basis; errors if x is outside the algebra.

        Each basis element is 1 at its first nonzero entry, where every
        other basis element vanishes, so the coordinates are the entries of
        x there; the reconstruction check catches membership failures
        exactly.
        """
        coords = [x[min(b.items())[0]] for b in self.basis]
        if self.element(coords) != x:
            raise ValueError(f"matrix not in {self.family}({self.n})")
        return coords

    def element(self, coords) -> Mat:
        return lincomb(zip(coords, self.basis), self.matrix_size, self.matrix_size)


def form_matrix(family: str, n: int) -> Mat:
    """The antidiagonal form F with X^T F + F X = 0 on the family: Jhat =
    [[0, J], [-J, 0]] for sp(2n) (F^T = -F) and J for so(n) (F^T = F),
    J the antidiagonal of ones.  Row i holds F[i, bar i] only."""
    if family == SP:
        N = 2 * n
        signs = {(i - 1, N - i): sign_function(n, i) for i in range(1, N + 1)}
        return Mat.from_entries(N, N, signs)
    if family == SO:
        return Mat.from_entries(n, n, {(i, n - 1 - i): 1 for i in range(n)})
    raise ValueError(f"{family} preserves no bilinear form")


def _family_basis(size: int, form: Mat | None):
    """Basis, Cartan, raising and lowering indices of the size x size
    algebra preserving the form F: E_ij + θ(E_ij) with θ(X) = -F^{-1} X^T F
    for i + j <= size + 1 (1-based), skipped when zero and scaled to 1 at
    (i, j); every E_ij when the form is None (gl)."""
    form_inv = None if form is None else inverse(form)
    basis, cartan, raising, lowering = [], [], [], []
    for i in range(size):
        for j in range(size if form is None else size - i):
            x = Mat.from_entries(size, size, {(i, j): ONE})
            if form is not None:
                x = x - form_inv * x.transpose() * form
                if x.is_zero():
                    continue
                x = x.scale(ONE / x[i, j])
            (cartan if i == j else raising if i < j else lowering).append(len(basis))
            basis.append(x)
    return basis, cartan, raising, lowering


def build_lie_algebra(family: str, n: int) -> LieAlgebraSpec:
    """Construct a family member with all structure tables filled in."""
    if family == GL:
        if n < 1:
            raise ValueError("gl(n) requires n >= 1")
        size = n
    elif family == SP:
        if n < 1:
            raise ValueError("sp(2n) requires n >= 1")
        size = 2 * n
    elif family == SO:
        if n < 3:
            raise ValueError(
                "so(n) requires n >= 3: so(2) is abelian and its standard module is reducible"
            )
        size = n
    else:
        raise ValueError(f"unknown family {family!r}")
    form = None if family == GL else form_matrix(family, n)
    basis, cartan, raising, lowering = _family_basis(size, form)

    gram_inv = inverse(Mat([[(a * b).trace() for b in basis] for a in basis]))
    # the Gram matrix is symmetric, so row i of its inverse is column i
    dual = [lincomb(((x, basis[j]) for j, x in row.items()), size, size) for row in gram_inv.data]

    spec = LieAlgebraSpec(
        family=family,
        n=n,
        matrix_size=size,
        basis=tuple(basis),
        bracket={},
        dual_basis=tuple(dual),
        cartan_indices=tuple(cartan),
        raising_indices=tuple(raising),
        lowering_indices=tuple(lowering),
    )
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            c = spec.coords(x.commutator(y))
            spec.bracket[(i, j)] = {k: v for k, v in enumerate(c) if v}
    return spec
