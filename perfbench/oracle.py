"""Expected dimensions, computed without the library under test.

The commutant of g acting on V(start) ⊗ V^{⊗steps} has dimension
Σ m_λ², where m_λ counts the tableau paths that reach λ one box at a
time: gl(n) only adds boxes (Pieri), sp(2n) and so(n) add or remove one
(Brauer's up-down tableaux).  The Burnside closure of component λ has
dimension m_λ².  From the empty shape, the gl count m_λ is f^λ, the
number of standard Young tableaux, which ``hook_length`` gives in closed
form.
"""

from __future__ import annotations

from collections import Counter
from math import factorial

GL, SP, SO = "gl", "sp", "so"


def _allowed(family: str, n: int, shape: tuple) -> bool:
    if family in (GL, SP):
        return len(shape) <= n
    if family == SO:
        # O(n) labels: the first two columns hold at most n boxes.  For odd n,
        # -1 in O(n) acts on V^{⊗d} as a scalar, so SO(n) has the same commutant.
        if n % 2 == 0:
            raise ValueError("the so oracle covers odd n only")
        cols = [sum(1 for r in shape if r > c) for c in range(2)]
        return cols[0] + cols[1] <= n
    raise ValueError(f"unknown family {family!r}")


def _neighbours(family: str, shape: tuple):
    rows = list(shape) + [0]
    for i in range(len(shape) + 1):
        if i == 0 or rows[i - 1] > rows[i]:
            grown = rows[:i] + [rows[i] + 1] + rows[i + 1 :]
            yield tuple(r for r in grown if r)
    if family == GL:
        return
    for i in range(len(shape)):
        if rows[i] > rows[i + 1]:
            shrunk = rows[:i] + [rows[i] - 1] + rows[i + 1 :]
            yield tuple(r for r in shrunk if r)


def multiplicities(family: str, n: int, steps: int, start: tuple = ()) -> Counter:
    """Multiplicity of each irreducible of g in V(start) ⊗ V^{⊗steps}.

    Labels are partitions without trailing zeros.
    """
    paths = Counter({tuple(r for r in start if r): 1})
    for _ in range(steps):
        nxt: Counter = Counter()
        for shape, count in paths.items():
            for s in _neighbours(family, shape):
                if _allowed(family, n, s):
                    nxt[s] += count
        paths = nxt
    return paths


def commutant_dim(family: str, n: int, steps: int, start: tuple = ()) -> int:
    return sum(m * m for m in multiplicities(family, n, steps, start).values())


def closure_dims(family: str, n: int, steps: int, start: tuple = ()) -> dict:
    """Burnside closure dimension m² per highest weight, labels padded to n."""
    return {
        shape + (0,) * (n - len(shape)): m * m
        for shape, m in multiplicities(family, n, steps, start).items()
    }


def hook_length(shape: tuple) -> int:
    """f^λ, the number of standard Young tableaux of shape λ."""
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])] if shape else []
    hooks = 1
    for i, r in enumerate(shape):
        for j in range(r):
            hooks *= (r - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks
