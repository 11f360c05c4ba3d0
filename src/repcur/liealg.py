"""The classical matrix Lie algebra families gl(n), sp(2n), so(n).

Each family is realized by explicit basis matrices, with the bracket table,
the trace form ⟨x, y⟩ = tr(xy), trace-form dual bases, and the index sets of
Cartan, raising and lowering basis elements of a rational split Cartan.

Realizations (bar i = N+1-i for N x N matrices):
  gl(n):  all n x n matrices, basis {E_ij}.
  sp(2n): X with X^T Jhat + Jhat X = 0 for the antidiagonal-block form
          Jhat = [[0, J], [-J, 0]], J the n x n antidiagonal of ones.
          Diagonal elements look like diag(a_1..a_n, -a_n..-a_1).
  so(n):  X with X^T J + J X = 0 for J the n x n antidiagonal of ones,
          basis {E_ij - E_{bar j, bar i} : i + j <= n}.  Diagonal elements
          look like diag(a_1..a_m, (0), -a_m..-a_1) with m = n // 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    gram_inverse: Mat = field(compare=False)
    dual_basis: tuple = field(compare=False)
    cartan_indices: tuple
    raising_indices: tuple
    lowering_indices: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords(self, x: Mat) -> list:
        """Coordinates of x in the basis; errors if x is outside the algebra.

        Uses the trace form: c = G^{-1} (tr(b_j x))_j, then verifies the
        reconstruction so membership failures are caught exactly.
        """
        pairing = [(b * x).trace() for b in self.basis]
        coords = self.gram_inverse.apply(pairing)
        if self.element(coords) != x:
            raise ValueError(f"matrix not in {self.family}({self.n})")
        return coords

    def element(self, coords) -> Mat:
        return lincomb(zip(coords, self.basis), self.matrix_size, self.matrix_size)


def _unit(size: int, i: int, j: int) -> Mat:
    """E_ij with 1-based indices."""
    return Mat.from_entries(size, size, {(i - 1, j - 1): ONE})


def _gl_basis(n: int):
    basis, cartan, raising, lowering = [], [], [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            idx = len(basis)
            basis.append(_unit(n, i, j))
            if i == j:
                cartan.append(idx)
            elif i < j:
                raising.append(idx)
            else:
                lowering.append(idx)
    return basis, cartan, raising, lowering


def _sp_basis(n: int):
    """Basis of sp(2n) in the antidiagonal realization.

    Block description for X = [[A, B], [C, D]]: D = -J A^T J, with J B and
    J C symmetric.  A-part elements E_ij - E_{jbar, ibar} (bar i = 2n+1-i),
    B-part (raising) E_{ibar', n+j}-style pairs, C-part their transposype.
    """
    N = 2 * n
    bar = lambda i: N + 1 - i
    basis, cartan, raising, lowering = [], [], [], []
    # Cartan: diag(a_i) - diag at mirrored position.
    for i in range(1, n + 1):
        cartan.append(len(basis))
        basis.append(_unit(N, i, i) - _unit(N, bar(i), bar(i)))
    # A-part off-diagonal: E_ij - E_{bar j, bar i}.
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            idx = len(basis)
            basis.append(_unit(N, i, j) - _unit(N, bar(j), bar(i)))
            (raising if i < j else lowering).append(idx)
    # B-part (upper-right block, positive roots e_i + e_j).
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            raising.append(len(basis))
            m = _unit(N, n + 1 - i, n + j)
            if i != j:
                m = m + _unit(N, n + 1 - j, n + i)
            basis.append(m)
    # C-part (lower-left block, negative roots).
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            lowering.append(len(basis))
            m = _unit(N, bar(i), j)
            if i != j:
                m = m + _unit(N, bar(j), i)
            basis.append(m)
    return basis, cartan, raising, lowering


def _so_basis(n: int):
    """Basis of so(n) in the antidiagonal realization: E_ij - E_{bar j, bar i}
    for i + j <= n (i + j = n + 1 gives zero, and i + j > n + 1 the negative
    of an element with i + j <= n)."""
    bar = lambda i: n + 1 - i
    basis, cartan, raising, lowering = [], [], [], []
    for i in range(1, n + 1):
        for j in range(1, n + 1 - i):
            idx = len(basis)
            basis.append(_unit(n, i, j) - _unit(n, bar(j), bar(i)))
            (cartan if i == j else raising if i < j else lowering).append(idx)
    return basis, cartan, raising, lowering


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


def build_lie_algebra(family: str, n: int) -> LieAlgebraSpec:
    """Construct a family member with all structure tables filled in."""
    if family == GL:
        if n < 1:
            raise ValueError("gl(n) requires n >= 1")
        size = n
        basis, cartan, raising, lowering = _gl_basis(n)
    elif family == SP:
        if n < 1:
            raise ValueError("sp(2n) requires n >= 1")
        size = 2 * n
        basis, cartan, raising, lowering = _sp_basis(n)
    elif family == SO:
        if n < 3:
            raise ValueError(
                "so(n) requires n >= 3: so(2) is abelian and its standard module is reducible"
            )
        size = n
        basis, cartan, raising, lowering = _so_basis(n)
    else:
        raise ValueError(f"unknown family {family!r}")

    dim = len(basis)
    gram = Mat([[(a * b).trace() for b in basis] for a in basis])
    gram_inv = inverse(gram)
    dual = [lincomb(zip(gram_inv.column(i), basis), size, size) for i in range(dim)]

    spec = LieAlgebraSpec(
        family=family,
        n=n,
        matrix_size=size,
        basis=tuple(basis),
        bracket={},
        gram_inverse=gram_inv,
        dual_basis=tuple(dual),
        cartan_indices=tuple(cartan),
        raising_indices=tuple(raising),
        lowering_indices=tuple(lowering),
    )
    for i in range(dim):
        for j in range(dim):
            c = spec.coords(basis[i].commutator(basis[j]))
            spec.bracket[(i, j)] = {k: v for k, v in enumerate(c) if v}
    return spec
