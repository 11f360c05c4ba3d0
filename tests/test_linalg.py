"""Exact linear algebra: row reduction, kernels, spans, closures."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repcur.linalg import (
    Mat,
    SpanTracker,
    algebra_closure,
    combine,
    inverse,
    kernel_basis,
    lincomb,
    null_space,
    rank,
    rref,
    solve_columns,
)
from repcur.rational import ONE, Q, ZERO, exact

from reference import is_vector, span_contains


def mat(rows):
    return Mat(rows)


def as_vector(values):
    """The {index: value} vector of the nonzero entries of a dense list."""
    return {j: x for j, x in enumerate(values) if x}


small_mats = st.lists(
    st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
)


def test_matrix_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b == mat([[1, 3], [4, 4]])
    assert a - a == Mat.zeros(2, 2)
    assert a * b == mat([[2, 1], [4, 3]])
    assert a.scale(Q(1, 2)) == mat([["1/2", 1], ["3/2", 2]])
    assert a.trace() == Q(5)
    assert a.transpose() == mat([[1, 3], [2, 4]])
    assert a.commutator(b) == a * b - b * a
    assert mat([[1, 1]]) * mat([[1], [-1]]) == Mat.zeros(1, 1)  # cancellation


def test_rref_pivots_and_rank():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    r, rk, pivots = rref(m)
    assert rk == 2
    assert pivots == [0, 1]
    assert rank(m) == 2


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_rref_idempotent(rows):
    m = mat(rows)
    r, _, _ = rref(m)
    r2, _, _ = rref(r)
    assert r == r2


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_rank_nullity(rows):
    m = mat(rows)
    assert rank(m) + len(kernel_basis(m)) == 3


def test_kernel_vectors_annihilate():
    m = mat([[1, 2, 3], [4, 5, 6]])
    for v in kernel_basis(m):
        assert combine(v, m.transpose().data) == {}


@settings(max_examples=40, deadline=None)
@given(small_mats)
def test_kernel_is_read_off_the_rref(rows):
    """One vector per free column f: 1 there, −R[i, f] at the i-th pivot."""
    m = mat(rows)
    r, _, pivots = rref(m)
    want = []
    for f in (j for j in range(3) if j not in pivots):
        v = {f: 1}
        for i, p in enumerate(pivots):
            if r[i, f]:
                v[p] = -r[i, f]
        want.append(v)
    got = kernel_basis(m)
    assert got == want
    assert all(type(x) is int or x.denominator != 1 for v in got for x in v.values())


def test_null_space_reads_no_row_past_the_rank_bound():
    def rows(*given):
        yield from given
        raise AssertionError("read a row past the rank bound")

    assert null_space(rows({0: 1, 1: -1}, {1: 2, 2: -2}), 3, max_rank=2) == [{0: 1, 1: 1, 2: 1}]
    assert null_space(rows(), 2, max_rank=0) == [{0: 1}, {1: 1}]
    assert null_space([{0: Q(1, 2), 1: 3}], 2) == [{0: -6, 1: 1}]


def test_inverse_round_trip():
    m = mat([[2, 1], [1, 1]])
    assert m * inverse(m) == Mat.identity(2)
    with pytest.raises(ValueError):
        inverse(mat([[1, 2], [2, 4]]))


def test_solve_columns():
    b = mat([[1, 0], [1, 1], [0, 2]])
    x = mat([[3, 1], [-1, 2]])
    assert solve_columns(b, b * x) == x


def test_span_tracker():
    t = SpanTracker(3)
    assert t.add({0: Q(1)})
    assert t.add({0: Q(1), 1: Q(1)})
    assert not t.add({0: Q(2), 1: Q(1)})
    assert t.dim == 2
    assert span_contains(t, {0: Q(5), 1: Q(-3)})
    assert not span_contains(t, {2: Q(1)})


def test_span_tracker_validates_vectors():
    """An index that is not an int in [0, length) raises like a length
    mismatch; entries pass through ``exact``, so a float raises and a zero
    is dropped."""
    t = SpanTracker(3)
    for index in (3, -1, Q(1, 2), True):
        with pytest.raises(ValueError, match=r"not an int in \[0, 3\)"):
            t.add({index: 1})
    with pytest.raises(TypeError):
        t.add({0: 0.5})
    assert not t.add({1: 0, 2: Q(0)}) and t.dim == 0
    v = {0: 1, 1: 0}
    assert t.add(v) and t._pivots == {0: {0: 1}}
    assert v == {0: 1, 1: 0}  # the caller's dict is not consumed


def test_span_dimension_of_matrices():
    a = mat([[1, 0], [0, 0]])
    b = mat([[0, 0], [0, 1]])
    t = SpanTracker(4)  # a Mat is added as its row-major entries
    assert t.add(a) and t.add(b) and not t.add(a + b)
    assert t.dim == 2


def test_algebra_closure_full_matrix_algebra():
    # E_12 and E_21 generate all of 2x2
    e12 = mat([[0, 1], [0, 0]])
    e21 = mat([[0, 0], [1, 0]])
    assert len(algebra_closure([e12, e21], 2, 4)) == 4


def _counting_products(monkeypatch):
    """Patch the matrix product to record its operands."""
    products = []
    mul = Mat.__mul__

    def counting(a, b):
        products.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(Mat, "__mul__", counting)
    return products


def test_algebra_closure_stops_once_every_matrix_is_spanned(monkeypatch):
    products = _counting_products(monkeypatch)
    e11 = mat([[1, 0], [0, 0]])
    e12 = mat([[0, 1], [0, 0]])
    e21 = mat([[0, 0], [1, 0]])
    # generators that span all 2x2 matrices get no product round
    assert len(algebra_closure([e12, e21, e11], 2, 4)) == 4
    assert products == []
    # over I, E_12, E_21 the sixth product, E_12 E_21 = E_11, fills the span
    assert len(algebra_closure([e12, e21], 2, 4)) == 4
    assert len(products) == 6


def test_algebra_closure_returns_at_the_bound(monkeypatch):
    products = _counting_products(monkeypatch)
    # E_12, E_21, E_34 and E_43 generate the block-diagonal M_2 + M_2, of dimension 8
    gens = [Mat.from_entries(4, 4, {ij: 1}) for ij in [(0, 1), (1, 0), (2, 3), (3, 2)]]
    # the span of I and the four generators reaches 8 within the first
    # round of 5 x 5 products; at the trivial bound 4**2 an 8 x 8 round
    # confirms it
    unbounded = algebra_closure(gens, 4, 4**2)
    assert len(unbounded) == 8 and len(products) == 5**2 + 8**2
    products.clear()
    assert algebra_closure(gens, 4, 8) == unbounded
    assert 0 < len(products) <= 5**2


def test_algebra_closure_commutative_case():
    d = mat([[1, 0], [0, 2]])
    assert len(algebra_closure([d], 2, 4)) == 2  # I and d


# -- sparse kernels against a plain list-of-lists reference ---------------

nonzero = st.builds(Q, st.integers(1, 4) | st.integers(-4, -1), st.integers(1, 3))
entries = st.just(ZERO) | nonzero


@st.composite
def sparse_mats(draw, rows=None, cols=None, elements=entries):
    """Dense reference rows (and the column count) of a small rational
    matrix: about half its entries zero, often one all-zero row and one
    all-zero column, and shapes that may be empty."""
    r = draw(st.integers(0, 4)) if rows is None else rows
    c = draw(st.integers(0, 4)) if cols is None else cols
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=1))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=1))
    return [
        [ZERO if i in zero_rows or j in zero_cols else draw(elements) for j in range(c)]
        for i in range(r)
    ], c


def build(ref):
    rows, c = ref
    return Mat(rows) if rows else Mat.zeros(0, c)


def dense(m):
    assert all(v for _, v in m.items()), "a zero entry is stored"
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def ref_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), ZERO) for j in range(cols)]
            for i in range(len(a))]


def ref_rref(rows, cols):
    """Textbook dense Gauss-Jordan, column by column."""
    data = [list(r) for r in rows]
    pivots, row = [], 0
    for col in range(cols):
        piv = next((i for i in range(row, len(data)) if data[i][col]), None)
        if piv is None:
            continue
        data[row], data[piv] = data[piv], data[row]
        inv = 1 / data[row][col]
        data[row] = [inv * x for x in data[row]]
        for i in range(len(data)):
            if i != row and data[i][col]:
                f = data[i][col]
                data[i] = [x - f * p for x, p in zip(data[i], data[row])]
        pivots.append(col)
        row += 1
    return data, pivots


def ref_kernel(rows, cols):
    r, pivots = ref_rref(rows, cols)
    basis = []
    for f in (j for j in range(cols) if j not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for i, p in enumerate(pivots):
            v[p] = -r[i][f]
        basis.append(v)
    return basis


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_arithmetic_matches_dense_reference(data):
    a_rows, c = data.draw(sparse_mats())
    r = len(a_rows)
    b_rows, _ = data.draw(sparse_mats(rows=r, cols=c))
    k = data.draw(st.integers(0, 4))
    m_rows, _ = data.draw(sparse_mats(rows=c, cols=k))
    s = data.draw(entries)
    a, b, m = build((a_rows, c)), build((b_rows, c)), build((m_rows, k))
    assert dense(a + b) == [[x + y for x, y in zip(u, v)] for u, v in zip(a_rows, b_rows)]
    assert dense(a - b) == [[x - y for x, y in zip(u, v)] for u, v in zip(a_rows, b_rows)]
    assert dense(a.scale(s)) == [[s * x for x in u] for u in a_rows]
    assert dense(a * m) == ref_mul(a_rows, m_rows, c, k)
    assert dense(a.transpose()) == [[a_rows[i][j] for i in range(r)] for j in range(c)]
    assert (a - a).is_zero() and (a + b) - b == a
    assert a.shape == (r, c) and (a * m).shape == (r, k)


@settings(max_examples=60, deadline=None)
@given(sparse_mats())
def test_sparse_rref_and_kernel_match_dense_reference(ref):
    rows, c = ref
    m = build(ref)
    r, rk, pivots = rref(m)
    want, want_pivots = ref_rref(rows, c)
    assert dense(r) == want
    assert pivots == want_pivots and rk == len(want_pivots)
    assert kernel_basis(m) == [as_vector(v) for v in ref_kernel(rows, c)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solve_columns_matches_dense_reference(data):
    b_rows, c = data.draw(sparse_mats(cols=data.draw(st.integers(1, 3))))
    k = data.draw(st.integers(0, 3))
    c_rows, _ = data.draw(sparse_mats(rows=len(b_rows), cols=k))
    b, rhs = build((b_rows, c)), build((c_rows, k))
    aug, pivots = ref_rref([u + v for u, v in zip(b_rows, c_rows)], c + k)
    if any(p >= c for p in pivots) or len(pivots) < c:
        with pytest.raises(ValueError):
            solve_columns(b, rhs)
    else:
        x = solve_columns(b, rhs)
        assert dense(x) == [row[c:] for row in aug[:c]]
        assert dense(b * x) == c_rows


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_span_tracker_matches_dense_rank(data):
    n = data.draw(st.integers(0, 5))
    vectors, _ = data.draw(sparse_mats(cols=n, rows=data.draw(st.integers(0, 6))))
    probe = data.draw(sparse_mats(rows=1, cols=n))[0][0]
    t = SpanTracker(n)
    seen = []
    for v in vectors:
        rank_before = len(ref_rref(seen, n)[1])
        seen.append(v)
        assert t.add(as_vector(v)) == (len(ref_rref(seen, n)[1]) > rank_before)
        assert t.dim == len(ref_rref(seen, n)[1])
    assert span_contains(t, as_vector(probe)) == (len(ref_rref(seen + [probe], n)[1]) == t.dim)


@settings(max_examples=40, deadline=None)
@given(sparse_mats(rows=2, cols=3))
def test_span_tracker_reads_matrices_row_major(ref):
    m = build(ref)
    t, u = SpanTracker(6), SpanTracker(6)
    assert t.add(m) == u.add(as_vector([x for row in ref[0] for x in row]))
    assert span_contains(t, m) and span_contains(u, m)
    with pytest.raises(ValueError):
        t.add(Mat.zeros(3, 3))


@settings(max_examples=40, deadline=None)
@given(sparse_mats())
def test_explicit_zeros_do_not_change_equality_or_hash(ref):
    rows, c = ref
    r = len(rows)
    with_zeros = Mat.from_entries(r, c, {(i, j): rows[i][j] for i in range(r) for j in range(c)})
    without = Mat.from_entries(r, c, {(i, j): v for (i, j), v in build(ref).items()})
    assert with_zeros == without == build(ref)
    assert hash(with_zeros) == hash(without)
    assert all(v for _, v in with_zeros.items())
    assert Mat.from_columns(without.transpose().data, r) == without


def test_algebra_closure_rejects_a_basis_longer_than_size_squared(monkeypatch):
    # a reducer that keeps every matrix would otherwise loop without bound
    monkeypatch.setattr(SpanTracker, "add", lambda self, vec: True)
    e12 = mat([[0, 1], [0, 0]])
    with pytest.raises(RuntimeError):
        algebra_closure([e12], 2, 4)


# -- int and Q entries ------------------------------------------------------


def test_exact_keeps_integral_values_as_ints():
    assert type(exact(Q(4, 2))) is int and exact(Q(4, 2)) == 2
    assert exact("3/2") == Q(3, 2) and type(exact("3/2")) is Q
    assert type(exact(-7)) is int
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        Mat([[0.5]])


ints = st.integers(-4, 4)
mixed = ints | nonzero  # nonzero rationals include integral ones such as 2/1


def as_q(m):
    """m with every entry held as a Q, as an all-rational Mat stores it."""
    return Mat._of(m.rows, m.cols, [{j: Q(v) for j, v in row.items()} for row in m.data])


def assert_no_floats(*results):
    for r in results:
        values = [v for _, v in r.items()] if isinstance(r, Mat) else r
        assert not any(isinstance(v, float) for v in values)


def assert_same(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert_no_floats(got, want)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mixed_int_and_rational_entries_match_all_rational(data):
    a_rows, c = data.draw(sparse_mats(elements=mixed))
    r = len(a_rows)
    b_rows, _ = data.draw(sparse_mats(rows=r, cols=c, elements=mixed))
    m_rows, k = data.draw(sparse_mats(rows=c, elements=mixed))
    s = data.draw(mixed)
    a, b, m = build((a_rows, c)), build((b_rows, c)), build((m_rows, k))
    qa, qb, qm = as_q(a), as_q(b), as_q(m)
    assert_same(a * m, qa * qm)
    assert_same(a + b, qa + qb)
    assert_same(a - b, qa - qb)
    assert_same(a.scale(s), qa.scale(Q(s)))
    assert_same(lincomb([(s, a), (2, b)], r, c), lincomb([(Q(s), qa), (Q(2), qb)], r, c))
    (ra, rk, pa), (rq, rkq, pq) = rref(a), rref(qa)
    assert_same(ra, rq)
    assert (rk, pa) == (rkq, pq)
    ka, kq = kernel_basis(a), kernel_basis(qa)
    assert ka == kq
    assert all(map(is_vector, ka + kq))
    assert all(type(x) is int or x.denominator != 1 for v in ka for x in v.values())
    columns = a.transpose().data
    images = [combine(v, columns) for v in m.transpose().data + ka]
    assert all(map(is_vector, images))
    assert Mat.from_columns(images[:k], r) == a * m
    assert not any(images[k:])
    if r and c:
        try:
            x = solve_columns(a, b)
        except ValueError:
            with pytest.raises(ValueError):
                solve_columns(qa, qb)
        else:
            assert_same(x, solve_columns(qa, qb))
    t, u = SpanTracker(c), SpanTracker(c)
    for i in range(r):
        row, qrow = Mat._of(1, c, [a.data[i]]), Mat._of(1, c, [qa.data[i]])
        assert t.add(row) == u.add(qrow)
    assert t.dim == u.dim
    for i in range(r):
        row, qrow = Mat._of(1, c, [b.data[i]]), Mat._of(1, c, [qb.data[i]])
        assert span_contains(t, row) == span_contains(u, qrow) == span_contains(u, row)
    for p in t._pivots:
        assert_no_floats(t._pivots[p].values(), u._pivots[p].values())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_integral_matrices_keep_int_entries(data):
    """Sums and products of integral matrices take no rational arithmetic."""
    a_rows, c = data.draw(sparse_mats(elements=ints))
    r = len(a_rows)
    b_rows, _ = data.draw(sparse_mats(rows=r, cols=c, elements=ints))
    m_rows, k = data.draw(sparse_mats(rows=c, elements=ints))
    s = data.draw(ints)
    a, b, m = build((a_rows, c)), build((b_rows, c)), build((m_rows, k))
    for result in (
        a,
        a * m,
        a + b,
        a - b,
        a.scale(s),
        a.scale(Q(s)),
        lincomb([(Q(s), a), (Q(-6, 3), b)], r, c),
        a.transpose(),
        Mat.identity(r) * a,
    ):
        assert all(type(v) is int for _, v in result.items())


# -- fraction-free elimination ----------------------------------------------

wide = st.integers(-10**6, 10**6) | st.builds(
    Q, st.integers(-10**6, 10**6), st.integers(1, 10**4)
)


@st.composite
def wide_rows(draw, cols, max_rows=6):
    """Rows of entries up to 10**6 with denominators up to 10**4, zeros
    among them; some rows are wide combinations of earlier ones, so that
    ranks fall short and dependent vectors occur."""
    rows = []
    for _ in range(draw(st.integers(0, max_rows))):
        if rows and draw(st.booleans()):
            row = [0] * cols
            for earlier in rows:
                c = draw(wide)
                row = [x + c * y for x, y in zip(row, earlier)]
        else:
            row = [draw(st.just(0) | wide) for _ in range(cols)]
        rows.append(row)
    return rows


def as_ref(rows):
    return [[Q(x) for x in row] for row in rows]


def assert_primitive_pivots(tracker):
    """The reducer's invariant: int pivot rows, gcd 1, positive lead."""
    for p, row in tracker._pivots.items():
        assert row and all(type(x) is int for x in row.values())
        assert min(row) == p and row[p] > 0
        assert math.gcd(*row.values()) == 1


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wide_entries_match_dense_reference(data):
    c = data.draw(st.integers(1, 5))
    rows = data.draw(wide_rows(c))
    m = Mat(rows) if rows else Mat.zeros(0, c)
    r, rk, pivots = rref(m)
    want, want_pivots = ref_rref(as_ref(rows), c)
    assert dense(r) == want
    assert pivots == want_pivots and rk == len(want_pivots)
    assert kernel_basis(m) == [as_vector(v) for v in ref_kernel(as_ref(rows), c)]

    if rows:
        k = data.draw(st.integers(0, 2))
        x = Mat([[data.draw(wide) for _ in range(k)] for _ in range(c)])
        if rk == c:
            assert solve_columns(m, m * x) == x
        else:
            with pytest.raises(ValueError):
                solve_columns(m, m * x)

    t = SpanTracker(c)
    for i, row in enumerate(rows):
        rank_before = t.dim
        assert t.add(as_vector(row)) == (len(ref_rref(as_ref(rows[: i + 1]), c)[1]) > rank_before)
        assert_primitive_pivots(t)
    assert t.dim == rk
    probe = data.draw(wide_rows(c, max_rows=1)) or [[0] * c]
    coeffs = [data.draw(wide) for _ in rows]
    inside = [sum((a * row[j] for a, row in zip(coeffs, rows)), 0) for j in range(c)]
    assert span_contains(t, as_vector(inside))
    grows = not span_contains(t, as_vector(probe[0]))
    assert grows == (len(ref_rref(as_ref(rows + probe), c)[1]) > rk)
    assert t.add(as_vector(probe[0])) == grows and t.dim == rk + grows
    assert_primitive_pivots(t)
