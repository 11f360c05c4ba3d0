"""Evaluation modules of g[t] and the matrices of invariant currents.

An evaluation module attaches a point p_i to each tensor factor; x(P) acts
on the i-th factor scaled by P(p_i).  Invariant tensors give elements
θ(P_1,...,P_k) of the enveloping algebra whose matrices on an evaluation
module are assembled here: ``current_images`` builds them for a sequence
of polynomial tuples in one pass that multiplies each shared word prefix
once, reusing the prefix a tuple shares with the one before it.  Operator
words compose with the rightmost factor applying first (the standard
left-module convention).
"""

from __future__ import annotations

from dataclasses import dataclass

from .liealg import LieAlgebraSpec
from .linalg import Mat, lincomb
from .modules import GModule, _promote, tensor_module
from .poly import Poly
from .rational import exact


@dataclass(frozen=True)
class InvariantTensor:
    """Formal sum Σ c · b_{i_1} ⊗ ... ⊗ b_{i_k} over spec basis indices."""

    k: int
    terms: tuple  # ((coeff, (i_1, ..., i_k)), ...) with zero coeffs dropped

    @classmethod
    def from_dict(cls, k: int, coeffs: dict) -> "InvariantTensor":
        items = tuple(
            (c, idx) for idx, c in sorted(coeffs.items()) if c
        )
        return cls(k, items)

    def is_zero(self) -> bool:
        return not self.terms


class EvaluationModule:
    """Tensor product of g-modules with one evaluation point per factor."""

    def __init__(self, factors: list, points: list):
        if len(points) != len(factors):
            raise ValueError(
                "need exactly one point per tensor factor "
                f"(factors: {len(factors)}, points: {len(points)})"
            )
        self.factors = list(factors)
        self.points = [exact(p) for p in points]
        self.carrier: GModule = tensor_module(self.factors)
        self.spec: LieAlgebraSpec = self.carrier.spec
        self.dims = [f.dim for f in self.factors]
        self._factor_actions: dict = {}
        self._poly_cache: dict = {}

    @property
    def d(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def has_distinct_points(self) -> bool:
        return len(set(self.points)) == len(self.points)

    def _promoted(self, basis_index: int, factor: int) -> Mat:
        key = (basis_index, factor)
        cached = self._factor_actions.get(key)
        if cached is None:
            cached = _promote(
                self.factors[factor].actions[basis_index], self.dims, factor
            )
            self._factor_actions[key] = cached
        return cached

    def basis_action(self, basis_index: int, poly: Poly) -> Mat:
        """Matrix of b(P): Σ_i P(p_i) (1 ⊗ ... ⊗ action_i(b) ⊗ ... ⊗ 1)."""
        key = (basis_index, poly.coeffs)
        cached = self._poly_cache.get(key)
        if cached is not None:
            return cached
        out = lincomb(
            ((poly(p), self._promoted(basis_index, i)) for i, p in enumerate(self.points)),
            self.dim,
            self.dim,
        )
        self._poly_cache[key] = out
        return out


def _prefix_levels(theta: InvariantTensor) -> list:
    """θ compiled into its distinct prefix sums, level by level.

    The single level-k sum is θ.  Grouping the terms of a level-L sum by
    their last letter b writes it as Σ_b S_b ⊗ b, with each S_b a level-(L−1)
    sum; equal sums are interned, so a shared prefix is one node.
    ``levels[L-1]`` lists the level-L nodes as tuples of (b, child), where
    child indexes ``levels[L-2]`` and, at level 1, is the coefficient.
    """
    levels = []
    pending = {tuple((idx, c) for c, idx in theta.terms): 0}  # sum -> node index
    for last in range(theta.k, 0, -1):
        below: dict = {}
        nodes = []
        for terms in pending:
            groups: dict = {}
            for idx, c in terms:
                groups.setdefault(idx[-1], []).append((idx[:-1], c))
            if last == 1:
                # the words differ, so each letter keeps one empty prefix
                nodes.append(tuple((b, g[0][1]) for b, g in groups.items()))
            else:
                nodes.append(
                    tuple(
                        (b, below.setdefault(tuple(sorted(g)), len(below)))
                        for b, g in groups.items()
                    )
                )
        levels.append(nodes)
        pending = below
    levels.reverse()
    return levels


def current_images(theta: InvariantTensor, tuples, em: EvaluationModule):
    """Yield θ(P_1,...,P_k) for each tuple of polynomials in ``tuples``,
    in that order.

    θ is compiled once into its distinct prefix sums (``_prefix_levels``);
    a level-L value is Σ_b value_{L−1} · b(P_L), with the coefficients on
    the level-1 sums.  Only the chain of level values for the current tuple
    is held: a tuple keeps the levels of the longest prefix it shares with
    the previous tuple and recomputes the rest, so a prefix shared by many
    terms or by consecutive tuples (as in ``itertools.product`` order) is
    multiplied once and nothing outlives the call.  Raises ValueError for a
    tuple whose length is not the degree.
    """
    levels = _prefix_levels(theta)
    dim = em.dim
    chain: list = []  # chain[L]: the level-(L+1) values for prev[: L + 1]
    prev: tuple = ()
    for polys in tuples:
        polys = tuple(polys)
        if len(polys) != theta.k:
            raise ValueError(
                f"arity mismatch: tensor degree {theta.k}, got {len(polys)} polynomials"
            )
        if not polys:
            yield Mat.identity(dim).scale(sum(c for c, _ in theta.terms))
            continue
        shared = 0
        while shared < len(prev) and polys[shared] == prev[shared]:
            shared += 1
        del chain[shared:]
        for level in range(shared, theta.k):
            poly = polys[level]
            if level:
                below = chain[-1]
                values = [
                    lincomb(
                        ((1, below[child] * em.basis_action(b, poly)) for b, child in node),
                        dim,
                        dim,
                    )
                    for node in levels[level]
                ]
            else:
                values = [
                    lincomb(((c, em.basis_action(b, poly)) for b, c in node), dim, dim)
                    for node in levels[0]
                ]
            chain.append(values)
        prev = polys
        yield chain[-1][0]


def invariant_operator_matrix(
    theta: InvariantTensor, polys: list, em: EvaluationModule
) -> Mat:
    """Matrix of θ(P_1,...,P_k): the single-tuple case of ``current_images``."""
    return next(current_images(theta, [polys], em))
