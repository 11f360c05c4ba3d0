"""Exact sparse linear algebra over the rationals.

Row reduction, kernels, span dimensions and unital matrix-algebra closure.
Everything here is exact.  Every vector is an {index: value} dict holding
only its nonzero entries, and a matrix stores each row as such a dict, so
every kernel touches nonzeros only; a zero is never stored.  All operations
return fresh objects (matrices are treated as immutable values once built).

Entries enter a matrix through ``rational.exact``: an integral entry is a
Python int and only an entry with a denominator is a ``Q``.  Sums and
products of ints stay ints and take no gcd, so integral matrices (every
gl current image at integer points) are assembled and multiplied in
integer arithmetic.  Arithmetic may leave an integral ``Q`` in place (such
as 1/2 + 1/2), which equals and hashes like the int.

Row reduction is fraction-free.  The one reducer, ``SpanTracker``, clears
the denominators of each incoming vector by their lcm, eliminates by
cross-multiplying integer rows and keeps every pivot row primitive: int
entries with gcd 1 and a positive lead.  Scaling a row never changes a
span, so ranks and containment need no division; only ``rref`` and
``null_space`` divide, by each pivot row's lead, when they return the
reduced form or the kernel read off it.
"""

from __future__ import annotations

from math import gcd, lcm

from .rational import ONE, exact


def _integral(v: dict) -> dict:
    """v scaled by the lcm of its denominators: v itself when all ints."""
    if all(type(x) is int for x in v.values()):
        return v
    den = lcm(*(x.denominator for x in v.values()))
    return {j: int(x * den) for j, x in v.items()}


def _make_primitive(v: dict, lead: int) -> None:
    """Divide the int row v in place by the gcd of its entries, signed so
    that its entry ``lead`` turns positive."""
    g = gcd(*v.values())
    if lead < 0:
        g = -g
    if g != 1:
        for j in v:
            v[j] //= g


def _eliminate(v: dict, b: int, prow: dict, a: int) -> None:
    """v <- (a·v - b·prow) / gcd(a, b) in place, for ints a > 0 and b.

    With a the lead of prow and b the entry of v in that column, the
    result vanishes in the column and stays integral."""
    if a != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        if a != 1:
            for j in v:
                v[j] *= a
    _axpy(v, -b, prow)


def _axpy(acc: dict, c, row: dict) -> None:
    """acc += c * row in place, deleting the entries that cancel."""
    unit = c == 1  # most coefficients and action entries are 1
    for j, x in row.items():
        if not unit:
            x = c * x
        s = acc.get(j)
        y = x if s is None else s + x
        if y:
            acc[j] = y
        else:
            del acc[j]


class Mat:
    """Sparse rows x cols matrix of exact rationals.

    ``data[i]`` is row i as a {column: nonzero value} dict.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows):
        """Build from dense rows (a list of equal-length lists)."""
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        if any(len(row) != self.cols for row in rows):
            raise ValueError("ragged rows")
        self.data = [{j: q for j, q in enumerate(map(exact, row)) if q} for row in rows]

    # -- constructors -------------------------------------------------

    @classmethod
    def _of(cls, rows: int, cols: int, data: list) -> "Mat":
        """Wrap row dicts that already hold only nonzero rationals."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        return cls._of(rows, cols, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, n: int) -> "Mat":
        return cls._of(n, n, [{i: 1} for i in range(n)])

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "Mat":
        """Build from a {(i, j): value} mapping."""
        m = cls.zeros(rows, cols)
        for (i, j), v in entries.items():
            v = exact(v)
            if v:
                m.data[i][j] = v
        return m

    @classmethod
    def from_columns(cls, columns, length: int) -> "Mat":
        """Build the ``length``-row matrix whose columns are the given
        {index: value} vectors."""
        cols = list(columns)
        entries = {(i, j): v for j, col in enumerate(cols) for i, v in col.items()}
        return cls.from_entries(length, len(cols), entries)

    # -- basic ops ----------------------------------------------------

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i].get(j, 0)

    def items(self):
        """((i, j), value) over the nonzero entries, row by row."""
        for i, row in enumerate(self.data):
            for j, v in row.items():
                yield (i, j), v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Mat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(frozenset(r.items()) for r in self.data)))

    def __add__(self, other: "Mat") -> "Mat":
        return lincomb(((1, self), (1, other)), self.rows, self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        return lincomb(((1, self), (-1, other)), self.rows, self.cols)

    def scale(self, c) -> "Mat":
        return lincomb(((c, self),), self.rows, self.cols)

    def __mul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
        out = [{} for _ in range(self.rows)]
        for orow, arow in zip(out, self.data):
            for k, a in arow.items():
                _axpy(orow, a, other.data[k])
        return Mat._of(self.rows, other.cols, out)

    def commutator(self, other: "Mat") -> "Mat":
        return self * other - other * self

    def transpose(self) -> "Mat":
        return Mat.from_entries(self.cols, self.rows, {(j, i): v for (i, j), v in self.items()})

    def is_zero(self) -> bool:
        return not any(self.data)

    def trace(self):
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        return sum(r.get(i, 0) for i, r in enumerate(self.data))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def __repr__(self):
        body = "; ".join(
            " ".join(str(r.get(j, 0)) for j in range(self.cols)) for r in self.data
        )
        return f"Mat[{self.rows}x{self.cols}: {body}]"


def lincomb(terms, rows: int, cols: int) -> Mat:
    """Σ c·M over the (c, M) pairs, accumulated in place into one matrix.

    Zero coefficients are skipped; every M must be rows x cols.
    """
    acc = [{} for _ in range(rows)]
    for c, m in terms:
        if m.rows != rows or m.cols != cols:
            raise ValueError(f"shape mismatch {(rows, cols)} vs {m.shape}")
        c = exact(c)
        if not c:
            continue
        for arow, mrow in zip(acc, m.data):
            _axpy(arow, c, mrow)
    return Mat._of(rows, cols, acc)


def combine(coeffs: dict, vectors) -> dict:
    """Σ_j coeffs[j]·vectors[j] as an {index: value} vector, for the
    vector ``coeffs`` and indexable {index: value} ``vectors``: a matrix
    times ``coeffs`` when ``vectors`` are its columns (the rows of its
    transpose), reading only the columns in the support of ``coeffs``."""
    out: dict = {}
    for j, c in coeffs.items():
        _axpy(out, c, vectors[j])
    return out


def rref(m: Mat):
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).  The rows are reduced fraction-free
    by a ``SpanTracker``; each of its primitive pivot rows is divided by
    its lead here, once, so the result is the unique RREF of m (leading
    1s, zeros above and below), whatever order the rows are reduced in.
    """
    tracker = SpanTracker(m.cols)
    for row in m.data:
        tracker._absorb(dict(row))
    pivots = sorted(tracker._pivots)
    data = []
    for p in pivots:
        row = tracker._pivots[p]
        lead = row[p]
        if lead != 1:
            inv = ONE / lead
            row = {j: exact(inv * x) for j, x in row.items()}
        data.append(row)
    data.extend({} for _ in range(m.rows - len(pivots)))
    return Mat._of(m.rows, m.cols, data), len(pivots), pivots


def rank(m: Mat) -> int:
    return rref(m)[1]


def kernel_basis(m: Mat) -> list:
    """Basis of the right null space, as {index: value} vectors.

    Vectors are ordered by free column; each has a 1 in its free column.
    """
    return null_space((dict(row) for row in m.data), m.cols)


def null_space(rows, length: int, max_rank: int | None = None) -> list:
    """Basis of {x : r·x = 0 for every row r}, as {index: value} vectors
    with indices below ``length``.

    Each row is a {index: value} dict of nonzero entries, consumed by the
    reduction.  Vectors are ordered by free index; each has a 1 in its free
    index and is zero in the other free indices.  Rows are no longer read
    once their rank reaches ``max_rank``, a bound the caller knows the rank
    cannot pass, so the rows left unread lie in the span already reduced.
    """
    tracker = SpanTracker(length)
    rows = iter(rows)
    while tracker.dim != max_rank and (row := next(rows, None)) is not None:
        tracker._absorb(row)
    pivots = tracker._pivots
    basis = {f: {f: 1} for f in range(length) if f not in pivots}
    for p, prow in pivots.items():  # reduced: its other entries are in free indices
        lead = prow[p]
        for f, x in prow.items():
            if f != p:
                basis[f][p] = -x if lead == 1 else -exact(ONE / lead * x)
    return list(basis.values())


def stack_rows(mats, cols: int) -> Mat:
    """Vertically concatenate matrices of ``cols`` columns; no matrices
    give the 0 x cols matrix, whose kernel is everything."""
    data = []
    for m in mats:
        if m.cols != cols:
            raise ValueError("column count mismatch in stack")
        data.extend(m.data)
    return Mat._of(len(data), cols, data)


class SpanTracker:
    """Incrementally row-reduce a growing set of vectors.

    Keeps a reduced echelon basis as sparse {index: value} pivot rows, each
    zero in every other pivot column; add() reports whether the vector
    enlarged the span.  Pivot rows are primitive int rows (gcd 1, positive
    lead) and are not normalized to a leading 1; ``rref`` does that on
    output.  A vector is an {index: value} dict with int indices in
    [0, length), or a Mat with rows * cols == length, read row-major.  Used
    wherever we only need dimensions of large spanning sets without
    materializing one huge matrix.
    """

    def __init__(self, length: int):
        self.length = length
        self._pivots: dict[int, dict] = {}

    @property
    def dim(self) -> int:
        return len(self._pivots)

    def _sparse(self, vec) -> dict:
        """A fresh dict of the nonzero entries of vec, for ``_absorb`` to
        consume; entries pass through ``exact``."""
        if isinstance(vec, Mat):
            if vec.rows * vec.cols != self.length:
                raise ValueError("vector length mismatch")
            return {i * vec.cols + j: v for (i, j), v in vec.items()}
        for j in vec:
            if type(j) is not int or not 0 <= j < self.length:
                raise ValueError(f"vector index {j!r} is not an int in [0, {self.length})")
        return {j: q for j, x in vec.items() if (q := exact(x))}

    def _reduce(self, v: dict) -> dict:
        """v scaled to ints, then eliminated against the pivot rows until it
        is zero in every pivot column (in place once integral).

        Pivot rows vanish in each other's pivot columns, and scaling v keeps
        its zeros, so one pass over the pivot columns v starts with
        suffices."""
        v = _integral(v)
        for col in [c for c in v if c in self._pivots]:
            prow = self._pivots[col]
            _eliminate(v, v[col], prow, prow[col])
        return v

    def _absorb(self, v: dict) -> bool:
        """Reduce v (consumed) and keep it as a new pivot row if nonzero."""
        v = self._reduce(v)
        if not v:
            return False
        col = min(v)
        _make_primitive(v, v[col])
        lead = v[col]
        for p, prow in self._pivots.items():
            b = prow.get(col)
            if b is not None:
                _eliminate(prow, b, v, lead)
                _make_primitive(prow, prow[p])
        self._pivots[col] = v
        return True

    def add(self, vec) -> bool:
        return self._absorb(self._sparse(vec))


def algebra_closure(gens, size: int, bound: int) -> list:
    """Basis of the smallest unital matrix algebra containing ``gens``.

    Seeds with the identity and the generators, then repeatedly multiplies
    basis elements pairwise and re-spans until the dimension stabilizes;
    terminates because the dimension is bounded by size**2.  Returns as
    soon as the span holds ``bound`` matrices, a dimension the caller knows
    the algebra cannot pass (size**2, all matrices, if nothing better is
    known), so no product round is spent confirming that nothing grows,
    and generators that already span ``bound`` dimensions get no product
    round at all.  A basis longer than size**2 means the reducer kept
    dependent matrices, and raises RuntimeError instead of looping on.
    """
    gens = list(gens)
    for g in gens:
        if g.shape != (size, size):
            raise ValueError(f"generator of shape {g.shape}, expected square {size}")
    tracker = SpanTracker(size * size)
    basis: list[Mat] = []

    def absorb(m: Mat) -> bool:
        if tracker.add(m):
            basis.append(m)
            if len(basis) > size * size:
                raise RuntimeError(f"closure basis exceeds {size}**2 matrices")
            return True
        return False

    absorb(Mat.identity(size))
    for g in gens:
        absorb(g)
    while True:
        grew = False
        snapshot = list(basis)
        for a in snapshot:
            for b in snapshot:
                if tracker.dim >= bound:
                    return basis
                if absorb(a * b):
                    grew = True
        if not grew:
            return basis


def solve_columns(b: Mat, c: Mat) -> Mat:
    """Solve B X = C where B has full column rank.

    Used to restrict operators to invariant subspaces (columns of B).
    Raises ValueError if the system is inconsistent or underdetermined.
    """
    if b.rows != c.rows:
        raise ValueError(f"shape mismatch {b.shape} vs {c.shape}")
    shift = b.cols
    aug = [
        {**brow, **{j + shift: v for j, v in crow.items()}}
        for brow, crow in zip(b.data, c.data)
    ]
    r, rk, pivots = rref(Mat._of(b.rows, shift + c.cols, aug))
    x = Mat.zeros(b.cols, c.cols)
    for i, p in enumerate(pivots):
        if p >= shift:
            raise ValueError("inconsistent system in solve_columns")
        x.data[p] = {j - shift: v for j, v in r.data[i].items() if j >= shift}
    if len(pivots) < b.cols:
        raise ValueError("solve_columns requires full column rank")
    return x


def inverse(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise ValueError("inverse of non-square matrix")
    return solve_columns(m, Mat.identity(m.rows))
