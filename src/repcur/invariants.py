"""Explicit invariant tensors from the First Fundamental Theorem.

An invariant in g^{⊗k} is a product of traces tr(x_{c_1} ⋯ x_{c_r}), one
per cycle of a cover of the k tensor slots (Procesi 1976).  One builder,
``theta_sigma``, serves every family: it takes the gl(N) permutation
tensor of σ and projects each slot onto the algebra (the identity for gl,
X ↦ (X + θ(X))/2 for sp and so, θ the involution of their invariant
form).  ``covers`` lists the σ needed: all of S_k for gl, and for sp and
so, where tr x = 0 and a reversed cycle only changes sign, the
fixed-point-free σ with one orientation per cycle.  Tensors are expanded
into spec-basis coordinates at construction time.
"""

from __future__ import annotations

import itertools
import math

from .liealg import GL, LieAlgebraSpec
from .currents import InvariantTensor
from .poly import Poly, lagrange_interpolant
from .rational import exact


class Permutation:
    """A bijection of {1, ..., k}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        self.images = images

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


def covers(family: str, k: int):
    """The permutations σ of the k slots whose θ_σ span the FFT invariants.

    For gl, all of S_k.  For sp and so, tr x = 0 and reversing a cycle of
    length r scales θ_σ by (−1)^r, so only the fixed-point-free σ count,
    with each cycle of length r ≥ 3 in one orientation: from its least
    entry m, σ(m) < σ⁻¹(m).  There are 0, 1, 1, 6, 22, 130 for k = 1..6.
    """
    if family == GL:
        yield from all_permutations(k)
        return
    for sigma in all_permutations(k):
        seen = set()
        for m in range(1, k + 1):
            if m in seen:
                continue
            cycle = [m]
            while sigma(cycle[-1]) != m:
                cycle.append(sigma(cycle[-1]))
            seen.update(cycle)
            if len(cycle) == 1 or cycle[1] > cycle[-1]:
                break
        else:
            yield sigma


def theta_sigma(sigma: Permutation, spec: LieAlgebraSpec) -> InvariantTensor:
    """π^{⊗k} of the gl(N) tensor Σ over i_1..i_k of E_{i_1, i_σ(1)} ⊗ ... ⊗
    E_{i_k, i_σ(k)}, in spec-basis coordinates.

    π is the trace-form orthogonal projection of gl(N) onto the algebra, so
    the coordinate of π(E_ab) along e_c is tr(E_ab e^c) = e^c[b, a] for the
    dual basis e^c: π(E_ab) = E_ab for gl, and (E_ab + θ(E_ab))/2 with
    θ(X) = −F⁻¹XᵀF for sp and so.  π commutes with the adjoint action, so
    θ_σ is ad-invariant.  Paired with x_1 ⊗ ... ⊗ x_k by the trace form it
    is the product, over the cycles (c_1 ... c_r) of σ, of the traces
    tr(x_{c_r} ⋯ x_{c_1}).
    """
    k = sigma.k
    if k < 1:
        raise ValueError(f"tensor degree must be >= 1, got {k}")
    size = spec.matrix_size
    pi = {
        (a, b): [(c, dual[b, a]) for c, dual in enumerate(spec.dual_basis) if dual[b, a]]
        for a in range(size)
        for b in range(size)
    }
    partner = [sigma(j) - 1 for j in range(1, k + 1)]
    acc: dict = {}
    for idx in itertools.product(range(size), repeat=k):
        slots = [pi[idx[j], idx[partner[j]]] for j in range(k)]
        for choice in itertools.product(*slots):
            key = tuple(c for c, _ in choice)
            acc[key] = acc.get(key, 0) + math.prod(v for _, v in choice)
    return InvariantTensor.from_dict(k, acc)


def fft_tensors(spec: LieAlgebraSpec, k: int):
    """The FFT spanning tensors of degree k: θ_σ over the family's covers."""
    if k < 1:
        raise ValueError(f"tensor degree must be >= 1, got {k}")
    return [theta_sigma(sigma, spec) for sigma in covers(spec.family, k)]


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
