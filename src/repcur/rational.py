"""Exact rational scalars.

Every quantity in this library is an exact rational number; floating point
never appears.  We use gmpy2's mpq when available (much faster) and fall
back to the stdlib Fraction, which has an identical arithmetic surface for
our purposes (construction from ints or "a/b" strings, str() rendering as
"a/b" or "a").

Matrix entries, polynomial coefficients and evaluation points go through
``exact``: an integral value is kept as a Python int, which needs no gcd in
sums and products, and only a value with a denominator is a ``Q``.  An int
equals the ``Q`` of the same value and hashes alike, so mixed data compares
and prints as all-``Q`` data would.  Since int / int is a float, a division
needs a ``Q`` operand, as in ``ONE / x``.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def exact(v):
    """v as an int when integral, else as a Q; a float raises TypeError."""
    if type(v) is int:
        return v
    if type(v) is not Q:
        if isinstance(v, float):
            raise TypeError(f"floats are not exact rationals: {v!r}")
        v = Q(v)
    return int(v) if v.denominator == 1 else v


def parse_rat(token: str):
    """Parse a rational literal like '3', '-2' or '7/3'.

    Raises ValueError with the offending token named.
    """
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            d = int(den)
            if d == 0:
                raise ValueError
            return Q(int(num), d)
        return Q(int(token))
    except (ValueError, TypeError):
        raise ValueError(f"malformed rational {token!r}") from None
