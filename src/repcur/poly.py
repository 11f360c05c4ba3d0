"""Dense univariate polynomials over the rationals."""

from __future__ import annotations

from .rational import Q, exact


class Poly:
    """Polynomial with exact rational coefficients, ascending order.

    Coefficients pass through ``rational.exact``: ints where integral."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [exact(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls([c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, x):
        x = exact(x)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + other.scale(-1)

    def scale(self, c) -> "Poly":
        c = exact(c)
        return Poly([c * x for x in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] += a * b
        return Poly(out)

    def monomials(self):
        """Yield (degree, coeff) for the nonzero terms."""
        for m, c in enumerate(self.coeffs):
            if c:
                yield m, c

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"{c}*t^{m}" for m, c in self.monomials()]
        return "Poly(" + " + ".join(terms) + ")"


def lagrange_interpolant(points, values) -> Poly:
    """The unique polynomial of degree < len(points) through the data.

    Points must be pairwise distinct rationals, one value per point.
    """
    pts = [exact(p) for p in points]
    values = list(values)
    if len(values) != len(pts):
        raise ValueError(
            f"need one value per point (points: {len(pts)}, values: {len(values)})"
        )
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    out = Poly()
    for r, (pr, vr) in enumerate(zip(pts, values)):
        basis = Poly.constant(1)
        for d, pd in enumerate(pts):
            if d != r:
                basis = basis * Poly([-pd, 1]).scale(Q(1) / (pr - pd))
        out = out + basis.scale(vr)
    return out
