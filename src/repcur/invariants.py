"""Explicit invariant tensors from the First Fundamental Theorem.

For gl(n) the spanning family is indexed by permutations of the tensor
slots; for sp(2n) and so(n) by permutations of 2k slots, with paired
indices tied together by the invariant form F of the family (Jhat for sp,
J for so, both antidiagonal) and each paired factor symmetrized into
sp(2n), resp. antisymmetrized into so(n).  All tensors are expanded into
spec-basis coordinates at construction time so one representation serves
every family.
"""

from __future__ import annotations

import itertools

from .liealg import GL, LieAlgebraSpec, form_matrix
from .linalg import Mat
from .currents import InvariantTensor
from .poly import Poly, lagrange_interpolant
from .rational import Q, exact


class Permutation:
    """A bijection of {1, ..., k}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(range(1, k + 1))

    @classmethod
    def cycle(cls, k: int) -> "Permutation":
        """The k-cycle (1, 2, ..., k)."""
        return cls([i % k + 1 for i in range(1, k + 1)])

    @classmethod
    def transposition(cls, k: int, r: int, s: int) -> "Permutation":
        if not (1 <= r <= k and 1 <= s <= k and r != s):
            raise ValueError(f"invalid transposition ({r}, {s}) in degree {k}")
        images = list(range(1, k + 1))
        images[r - 1], images[s - 1] = s, r
        return cls(images)

    @classmethod
    def from_cycles(cls, k: int, cycles) -> "Permutation":
        images = list(range(1, k + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                if not 1 <= a <= k:
                    raise ValueError(f"cycle entry {a} out of range 1..{k}")
                images[a - 1] = b
        return cls(images)

    @property
    def k(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition self ∘ other."""
        if self.k != other.k:
            raise ValueError("degree mismatch")
        return Permutation([self(other(i)) for i in range(1, self.k + 1)])

    def inverse(self) -> "Permutation":
        images = [0] * self.k
        for i, img in enumerate(self.images, start=1):
            images[img - 1] = i
        return Permutation(images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation{self.images}"


def all_permutations(k: int):
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation(images)


def casimir_tensor(spec: LieAlgebraSpec) -> InvariantTensor:
    """Ω = Σ_i e_i ⊗ e^i, expanded in basis coordinates."""
    acc: dict = {}
    for i, dual in enumerate(spec.dual_basis):
        for j, c in enumerate(spec.coords(dual)):
            if c:
                key = (i, j)
                acc[key] = acc.get(key, 0) + c
    return InvariantTensor.from_dict(2, acc)


def _gl_index(n: int, i: int, j: int) -> int:
    return (i - 1) * n + (j - 1)


def theta_sigma_gl(sigma: Permutation, n: int) -> InvariantTensor:
    """Σ over i_1..i_k of E_{i_1, i_σ(1)} ⊗ ... ⊗ E_{i_k, i_σ(k)}."""
    k = sigma.k
    acc: dict = {}
    for idx in itertools.product(range(1, n + 1), repeat=k):
        key = tuple(
            _gl_index(n, idx[j - 1], idx[sigma(j) - 1]) for j in range(1, k + 1)
        )
        acc[key] = acc.get(key, 0) + 1
    return InvariantTensor.from_dict(k, acc)


def theta_cycle_gl(k: int, n: int) -> InvariantTensor:
    """θ for the distinguished cycle (1, 2, ..., k)."""
    if k < 1:
        raise ValueError("cycle degree must be >= 1")
    return theta_sigma_gl(Permutation.cycle(k), n)


def _expand_factors(spec: LieAlgebraSpec, prefactor, factor_coords, acc: dict):
    """Multilinear expansion of prefactor · f_1 ⊗ ... ⊗ f_k into acc."""
    choices = [(prefactor, ())]
    for coords in factor_coords:
        nxt = []
        for c, key in choices:
            for b, cb in coords:
                nxt.append((c * cb, key + (b,)))
        choices = nxt
    for c, key in choices:
        acc[key] = acc.get(key, 0) + c


def _sparse_coords(spec: LieAlgebraSpec, m: Mat):
    return [(b, c) for b, c in enumerate(spec.coords(m)) if c]


def paired_factor_table(spec: LieAlgebraSpec) -> dict:
    """Spec coordinates of every paired factor of sp(2n) or so(n).

    With F = form_matrix and F^T = εF, maps slot values (a, b) to the
    sparse coordinates of (1/2)(e_a e_b^T F - ε e_b e_a^T F): that is
    (1/2)(s(b) E_{a, bar b} + s(a) E_{b, bar a}) for sp and
    (1/2)(E_{a, bar b} - E_{b, bar a}) for so.  Computing them verifies that
    each factor lies in the algebra.
    """
    N = spec.matrix_size
    F = form_matrix(spec.family, spec.n)
    eps = 1 if F.transpose() == F else -1
    half = Q(1, 2)
    table = {}
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            ab = Mat.from_entries(N, N, {(a - 1, b - 1): half}) * F
            ba = Mat.from_entries(N, N, {(b - 1, a - 1): half}) * F
            table[(a, b)] = _sparse_coords(spec, ab - ba.scale(eps))
    return table


def theta_sigma_form(sigma: Permutation, spec: LieAlgebraSpec, factors=None):
    """The FFT tensor of sp(2n) or so(n) for σ ∈ Σ_{2k}.

    Free indices v run over the odd slots; each even slot holds bar v, the
    pair carrying the coefficient F[v, bar v] of the antidiagonal form F =
    form_matrix (the sign s(v) for sp, 1 for so).  Each of the k paired
    factors is symmetrized into sp(2n), resp. antisymmetrized into so(n),
    via the form; ``factors`` is ``paired_factor_table(spec)``, built here
    when not given, so that ``fft_tensors`` builds it once for all σ.
    """
    if sigma.k % 2:
        raise ValueError("paired tensors need a permutation of even degree")
    if factors is None:
        factors = paired_factor_table(spec)
    k = sigma.k // 2
    # (v, bar v, F[v, bar v]) over the nonzero entries of F, v ascending
    pairs = [(r + 1, c + 1, f) for (r, c), f in form_matrix(spec.family, spec.n).items()]

    acc: dict = {}
    for free in itertools.product(pairs, repeat=k):
        slots = [0]
        coeff = 1
        for v, v_bar, f in free:
            slots += (v, v_bar)
            coeff *= f
        coords = [
            factors[slots[sigma(2 * j - 1)], slots[sigma(2 * j)]]
            for j in range(1, k + 1)
        ]
        _expand_factors(spec, coeff, coords, acc)
    return InvariantTensor.from_dict(k, acc)


def fft_tensors(spec: LieAlgebraSpec, k: int):
    """All FFT spanning tensors of degree k for the given family."""
    if k < 1:
        raise ValueError(f"tensor degree must be >= 1, got {k}")
    if spec.family == GL:
        return [theta_sigma_gl(s, spec.n) for s in all_permutations(k)]
    factors = paired_factor_table(spec)
    return [theta_sigma_form(s, spec, factors) for s in all_permutations(2 * k)]


def schur_weyl_polys(tau, points, k: int):
    """The Lagrange-style pair (P_τ, Q_τ) attached to a transposition.

    P_τ = (t - p_r + 1) L_r with L_r = Π_{d≠r} (t - p_d)/(p_r - p_d) the
    Lagrange indicator of p_r (``lagrange_interpolant``, which rejects
    repeated points), and Q_τ the same with s in place of r.  Each has
    degree k and P_τ(p_d) = δ_{dr}, Q_τ(p_d) = δ_{ds}.
    """
    if len(tau) != 2 or not (1 <= tau[0] < tau[1] <= k):
        raise ValueError(
            f"transposition indices must satisfy 1 <= r < s <= {k}, got {tuple(tau)}"
        )
    r, s = tau
    pts = [exact(p) for p in points]
    if len(pts) != k:
        raise ValueError(f"need {k} points, got {len(pts)}")

    def build(target: int) -> Poly:
        delta = [int(d == target) for d in range(1, k + 1)]
        return Poly([1 - pts[target - 1], 1]) * lagrange_interpolant(pts, delta)

    return build(r), build(s)
