"""Exact linear algebra tests."""

import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate
from cssconcat.errors import DomainError, TooLarge
from cssconcat import galois, matrix
from cssconcat.galois import Extension, Field
from cssconcat.matrix import MatGF, enumerate_span
from cssconcat.outer_grs import nested_grs_pair
from references import dense_matmul, reduce_rows


def test_rref_identity():
    f = Field(2)
    M = MatGF.identity(f, 4)
    R, piv, rank = M.rref()
    assert rank == 4 and piv == (0, 1, 2, 3)
    assert np.array_equal(R.a, np.eye(4, dtype=np.int64))


def test_rank_and_nullspace():
    f = Field(2)
    M = MatGF(f, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert M.rank == 2
    N = M.null_space()
    assert N.rows == 1
    assert not f.matmul(M.a, N.a.T).any()


def test_nullspace_random_fields():
    rng = np.random.default_rng(3)
    for f in (Field(2), Field(3), Field(2, 2), Field(5)):
        for _ in range(10):
            A = rng.integers(0, f.q, size=(4, 7))
            M = MatGF(f, A)
            N = M.null_space()
            assert M.rank + N.rows == 7
            assert not f.matmul(A, N.a.T).any()


def test_span_membership():
    f = Field(2)
    M = MatGF(f, [[1, 1, 0, 0], [0, 0, 1, 1]])
    assert M.span_contains([1, 1, 1, 1])
    assert not M.span_contains([1, 0, 0, 0])
    mask = M.span_contains_rows(np.array([[1, 1, 0, 0], [1, 0, 1, 0]]))
    assert mask.tolist() == [True, False]
    # codes outside the field are rejected, not wrapped into the work dtype
    for bad in ([1, 1, 0, 256], [1, 1, 0, -1], [0, 0, 0, 2]):
        with pytest.raises(DomainError):
            M.span_contains(bad)
    # so are rows of the wrong length, and batches that are not 2-D
    for bad in ([[1, 1, 0]], [[1, 1, 0, 0, 0]], [1, 1, 0, 0], [[[1, 1, 0, 0]]]):
        with pytest.raises(DomainError):
            M.span_contains_rows(np.array(bad))


def test_codes_are_checked_before_narrowing():
    """Over GF(3) the codes are int8: 300 would become 44, 257 and -255 the
    code 1, and 2**64 - 255 in uint64 the code 1 too."""
    F3 = Field(3)
    bad = [[[300]], [[257]], [[-255]], np.array([[2 ** 64 - 255]], dtype=np.uint64)]
    for a in bad:
        with pytest.raises(DomainError):
            MatGF(F3, a)
        with pytest.raises(DomainError):
            MatGF(F3, [[1]]).span_contains_rows(a)
    B = MatGF(F3, np.array([[True, False], [False, True]]))
    assert B.a.dtype == np.int8 and B.a.tolist() == [[1, 0], [0, 1]]


def test_narrow_signed_codes_are_checked_in_a_wider_dtype():
    """Read as uint8, the int8 code -1 is 255, below 256: over GF(256) a
    narrower signed array is widened before its range check."""
    F = Field(2, 8)
    for a in (np.array([[3, -1]], dtype=np.int8), np.array([[-128]], dtype=np.int8)):
        with pytest.raises(DomainError):
            MatGF(F, a)
        with pytest.raises(DomainError):
            matrix.check_codes(a[0], F.q)
    assert MatGF(F, np.array([[3, 127]], dtype=np.int8)).a.tolist() == [[3, 127]]


def test_float_codes_must_be_integers():
    """A float entry is rejected unless it is an integer in range, with no
    cast warning for NaN or inf; integral floats are read as their codes."""
    F3 = Field(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([[1.5, 2.2]], [[np.nan, 0.0]], [[np.inf, 1.0]], [[1e300, 0.0]],
                    [[-1.0, 0.0]], [[3.0, 0.0]]):
            with pytest.raises(DomainError, match="integers"):
                MatGF(F3, bad)
            with pytest.raises(DomainError, match="integers"):
                matrix.check_codes(np.array(bad), 3)
        with pytest.raises(DomainError, match="integers"):
            matrix.check_codes(np.array([0.5], dtype=np.float32), 3)
        assert MatGF(F3, [[1.0, 2.0]]).a.tolist() == [[1, 2]]
        assert MatGF(F3, np.zeros((0, 2))).a.shape == (0, 2)


def test_same_row_space():
    f = Field(3)
    A = MatGF(f, [[1, 2, 0], [0, 1, 1]])
    B = MatGF(f, [[1, 0, 1], [0, 2, 2]])  # row ops of A
    assert A.same_row_space(B)
    assert not A.same_row_space(MatGF(f, [[1, 0, 0], [0, 1, 0]]))


@pytest.mark.parametrize("q", [2, 3, 4, 81, 1024])
def test_digits_pack_round_trip(q):
    """pack inverts digits, little-endian base q, on every code below q^k
    (sampled above 4096), and digits inverts pack on random digit rows."""
    for k in (1, 2, 3):
        codes = np.arange(min(q ** k, 4096))
        if q ** k > 4096:
            codes = np.random.default_rng(q).integers(0, q ** k, 4096)
        D = matrix.digits(codes, q, k)
        assert D.dtype == np.int64 and D.shape == codes.shape + (k,)
        assert ((D >= 0) & (D < q)).all()
        assert np.array_equal(D[:, 0], codes % q) and np.array_equal(D[:, -1], codes // q ** (k - 1))
        assert matrix.pack(D, q).dtype == np.int64
        assert np.array_equal(matrix.pack(D, q), codes)
        rows = np.random.default_rng(k).integers(0, q, (5, 7, k))
        assert np.array_equal(matrix.digits(matrix.pack(rows, q), q, k), rows)


def test_pack_edge_shapes():
    """An empty last axis packs to zeros, int8 digits widen to int64 (no
    wrap at q = 128), and a 1-D digit vector packs to a scalar."""
    empty = matrix.pack(np.zeros((4, 0), dtype=np.int8), 3)
    assert empty.shape == (4,) and empty.dtype == np.int64 and not empty.any()
    assert matrix.digits(np.arange(5), 3, 0).shape == (5, 0)
    top = np.full((2, 3), 127, dtype=np.int8)
    assert matrix.pack(top, 128).tolist() == [128 ** 3 - 1] * 2
    one = matrix.pack([1, 0, 2], 3)
    assert np.ndim(one) == 0 and one == 1 + 2 * 9 and one.dtype == np.int64
    assert matrix.digits(19, 3, 3).tolist() == [1, 0, 2]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 4096])
def test_pack_matches_python_integer_reference(q):
    """pack equals sum_j d_j q**j summed in Python integers, on shapes with
    0 rows, 1 row, 1 and 0 digits, several leading axes and a 1-D vector,
    in int8 (where q allows), int16 and int64 digits, up to q**5 = 2**60."""
    rng = np.random.default_rng(q)
    for shape in [(0, 3), (1, 4), (6, 1), (5, 0), (2, 7, 3), (4,), (300, 5)]:
        D = rng.integers(0, q, size=shape)
        rows = D.reshape(int(np.prod(shape[:-1])), shape[-1])
        want = np.array([sum(int(d) * q ** j for j, d in enumerate(row)) for row in rows],
                        dtype=np.int64)
        want = want.reshape(shape[:-1])
        for dtype in [np.int8, np.int16, np.int64]:
            if q > np.iinfo(dtype).max:
                continue
            got = matrix.pack(D.astype(dtype), q)
            assert np.asarray(got).dtype == np.int64 and np.shape(got) == shape[:-1]
            assert np.array_equal(got, want)


def test_enumerate_span_counts():
    f = Field(3)
    G = np.array([[1, 0, 2], [0, 1, 1]])
    words = np.concatenate(list(enumerate_span(f, G)))
    assert words.shape == (9, 3)
    assert len({tuple(w) for w in words}) == 9


# -- fast elimination kernels against the table path -----------------------------

# Extension(GF(p), 1) has the same element codes as GF(p); its as_field()
# eliminates through the dense tables, the reference path
FIELDS = {p: (Field(p), Extension(Field(p), 1).as_field()) for p in (2, 3, 5)}
FIELDS[4] = (Field(2, 2), None)  # already on the table path
# characteristic 2 on the table path: row updates are XOR
FIELDS[16] = (Extension(Field(2), 4).as_field(), None)
FIELDS["16/4"] = (Extension(Field(2, 2), 2).as_field(), None)


def _as_input_dtypes(f, A):
    """``A`` as int64 and as the field's code dtype: every kernel takes both."""
    A = np.asarray(A, dtype=np.int64)
    return A, A.astype(f.dtype)


def test_field_kinds():
    # the code dtype follows the order: int8 up to 128, int16 above
    assert Field(3).dtype == np.int8 and Field(2, 7).dtype == np.int8
    assert Field(131).dtype == np.int16 and Extension(Field(2), 8).as_field().dtype == np.int16
    assert Field(2).kind == "gf2"
    assert Field(3).kind == "prime" and Field(5).kind == "prime"
    assert Field(2, 2).kind == "tables" and Field(3, 2).kind == "tables"
    assert FIELDS[3][1].kind == "tables"


def _scalar_rref(f, A):
    """Gauss-Jordan one entry at a time: the slowest, most literal reference."""
    rows, cols = A.shape
    A = [[int(x) for x in row] for row in A]
    pivots, row = [], 0
    for col in range(cols):
        piv = next((r for r in range(row, rows) if A[r][col]), None)
        if piv is None:
            continue
        A[row], A[piv] = A[piv], A[row]
        inv = f.inv(A[row][col])
        A[row] = [f.mul(inv, x) for x in A[row]]
        for r in range(rows):
            c = A[r][col]
            if r != row and c:
                A[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(A[r], A[row])]
        pivots.append(col)
        row += 1
    return np.array(A, dtype=np.int64).reshape(rows, cols), tuple(pivots), row


@st.composite
def matrices(draw, max_rows=8, max_cols=10):
    key = draw(st.sampled_from(list(FIELDS)))
    q = FIELDS[key][0].q
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    # a few low-weight shapes exercise rank deficiency and zero columns
    values = st.integers(0, q - 1) | st.just(0)
    flat = draw(st.lists(values, min_size=rows * cols, max_size=rows * cols))
    return key, np.array(flat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=225, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    key, A = case
    fast, table_view = FIELDS[key]
    ref = _scalar_rref(fast, A)
    for X in _as_input_dtypes(fast, A):
        R, piv, rank = MatGF(fast, X).rref()
        assert np.array_equal(R.a, ref[0]) and R.a.dtype == fast.dtype
        assert (piv, rank) == ref[1:]
        if table_view is not None:
            Rt, pivt, rankt = MatGF(table_view, X).rref()
            assert np.array_equal(R.a, Rt.a) and (piv, rank) == (pivt, rankt)


@settings(max_examples=225, deadline=None)
@given(matrices())
def test_null_space_matches_reference(case):
    key, A = case
    fast, table_view = FIELDS[key]
    for X in _as_input_dtypes(fast, A):
        N = MatGF(fast, X).null_space()
        assert N.rows + MatGF(fast, X).rank == A.shape[1]
        assert not fast.matmul(X, N.a.T).any()
        if table_view is not None:
            assert np.array_equal(N.a, MatGF(table_view, X).null_space().a)


@settings(max_examples=225, deadline=None)
@given(matrices(), st.data())
def test_reduce_rows_matches_reference(case, data):
    """span_contains_rows and span_contains, on every kernel's field, hold
    exactly for the rows whose per-pivot reference residual is zero."""
    key, A = case
    fast, table_view = FIELDS[key]
    m = data.draw(st.integers(0, 6))
    X = np.array(data.draw(st.lists(st.integers(0, fast.q - 1), min_size=m * A.shape[1],
                                    max_size=m * A.shape[1])),
                 dtype=np.int64).reshape(m, A.shape[1])
    resid = reduce_rows(fast, A, X)
    assert resid.dtype == fast.dtype and resid.shape == X.shape
    # the residual vanishes on every pivot column
    assert not resid[:, list(MatGF(fast, A).rref()[1])].any()
    want = ~resid.any(axis=1)
    for f in (fast, table_view) if table_view is not None else (fast,):
        for A_in, X_in in zip(_as_input_dtypes(f, A), _as_input_dtypes(f, X)):
            M = MatGF(f, A_in)
            got = M.span_contains_rows(X_in)
            assert got.dtype == bool and np.array_equal(got, want)
            assert [M.span_contains(x) for x in X_in] == want.tolist()
            # and differs from its row by a combination of the rows of A
            assert M.span_contains_rows(f.sub(X_in, resid)).all()


# 257 and 1021 eliminate in float64 panels
SPAN_FIELDS = (FIELDS[2], FIELDS[3]) + tuple(
    (Field(p), Extension(Field(p), 1).as_field()) for p in (31, 257, 1021))


@st.composite
def span_batches(draw):
    """A matrix with no rows, of low rank, random, or of full column rank
    with no free column, and a batch of rows of its span, random rows,
    all-zero rows and rows with no entry in a pivot column; the batch is
    empty, small, or three chunks of rows, so that its rows with a pivot
    entry usually fill more than one."""
    fast, tables = draw(st.sampled_from(SPAN_FIELDS))
    p = fast.p
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 10))
    A = rng.integers(0, p, (rows, cols))
    shape = draw(st.sampled_from(("random", "low_rank", "no_free_column")))
    if shape == "low_rank" and rows > 1:
        A = rng.integers(0, p, (rows, 1)) * A[:1] % p
    elif shape == "no_free_column":
        A = np.concatenate([np.eye(cols, dtype=np.int64)[rng.permutation(cols)], A])
    if draw(st.booleans()):
        m = 3 * matrix.chunk_rows(cols, 4) + draw(st.integers(1, 3))
    else:
        m = draw(st.integers(0, 12))
    kind = rng.integers(0, 4, m)
    X = rng.integers(0, p, (m, cols))
    X[kind == 0] = rng.integers(0, p, ((kind == 0).sum(), len(A))) @ A % p
    X[kind == 2] = 0
    pivots = list(MatGF(fast, A).rref()[1])
    no_pivot = X[kind == 3]
    no_pivot[:, pivots] = 0
    X[kind == 3] = no_pivot
    return fast, tables, A, X, kind


@settings(max_examples=60, deadline=None)
@given(span_batches())
def test_span_contains_rows_matches_residuals(case):
    fast, tables, A, X, kind = case
    want = ~reduce_rows(tables, A, X).any(axis=1)
    for f in (fast, tables):
        for A_in, X_in in zip(_as_input_dtypes(f, A), _as_input_dtypes(f, X)):
            got = MatGF(f, A_in).span_contains_rows(X_in)
            assert got.dtype == bool and got.shape == (len(X),)
            assert np.array_equal(got, want)
    assert want[kind == 0].all() and want[kind == 2].all()
    assert np.array_equal(want[kind == 3], ~X[kind == 3].any(axis=1))


def test_kernels_agree_on_larger_low_rank_matrices():
    """Rank-deficient 40 x 60 products keep every pivot step busy."""
    rng = np.random.default_rng(11)
    for q in (2, 3, 5):
        fast, table_view = FIELDS[q]
        A = fast.matmul(rng.integers(0, q, (40, 25)), rng.integers(0, q, (25, 60)))
        X = rng.integers(0, q, (30, 60))
        M, Mt = MatGF(fast, A), MatGF(table_view, A)
        assert np.array_equal(M.rref()[0].a, Mt.rref()[0].a)
        assert M.rref()[1:] == Mt.rref()[1:] and M.rank <= 25
        assert np.array_equal(M.null_space().a, Mt.null_space().a)
        # random rows (mostly outside the span) and combinations of rows of A
        X = np.concatenate([X, fast.matmul(rng.integers(0, q, (10, 40)), A)])
        want = ~reduce_rows(table_view, A, X).any(axis=1)
        assert want[30:].all()
        assert np.array_equal(M.span_contains_rows(X), want)
        assert np.array_equal(Mt.span_contains_rows(X), want)


# -- the blocked odd-prime kernel past one panel of pivots ---------------------

# 251 is the largest prime whose full panel the kernel runs in float32, 257
# the smallest it runs in float64; at 1021 float32 panels would not be exact
PANEL_PRIMES = (3, 5, 7, 31, 251, 257, 1021)


def _panel_cases(p, rng):
    """Seeded matrices that cross the 64-pivot panel of the odd-prime kernel."""
    def product(rows, rank, cols):
        return (rng.integers(0, p, (rows, rank)) @ rng.integers(0, p, (rank, cols))) % p

    low_rank = product(150, 70, 200)  # rank-deficient: 70 pivots, two panels
    # zero columns on both sides of the first panel's end: pivots 0-59 sit in
    # columns 0-59, pivots 60-63 in 68-71, and the next panel starts at 76
    zero_run = rng.integers(0, p, (70, 200))
    zero_run[:, 60:68] = 0
    zero_run[:, 72:76] = 0
    wide_rank1 = product(12, 1, 300)
    return [low_rank, zero_run, wide_rank1, np.zeros((0, 200), dtype=np.int64),
            rng.integers(0, p, (1, 200)), rng.integers(0, p, (150, 1))]


@pytest.mark.parametrize("p", PANEL_PRIMES)
def test_prime_kernel_past_the_panel_width(p):
    rng = np.random.default_rng(1000 + p)
    fast, table_view = Field(p), Extension(Field(p), 1).as_field()
    assert matrix.blas_dtype(matrix._PANEL + 1, p) == (np.float32 if p <= 251 else np.float64)
    for A in _panel_cases(p, rng):
        M, Mt = MatGF(fast, A), MatGF(table_view, A)
        R, piv, rank = M.rref()
        ref = _scalar_rref(fast, A)
        assert np.array_equal(R.a, ref[0]) and (piv, rank) == ref[1:]
        Rt, pivt, rankt = Mt.rref()
        assert np.array_equal(R.a, Rt.a) and (piv, rank) == (pivt, rankt)
        assert R.a.dtype == Rt.a.dtype == fast.dtype
        N, Nt = M.null_space().a, Mt.null_space().a
        assert np.array_equal(N, Nt) and N.dtype == Nt.dtype
        # rows of A (in the span), random rows (mostly outside) and zeros
        X = np.concatenate([A[:20], rng.integers(0, p, (40, A.shape[1])),
                            np.zeros((3, A.shape[1]), dtype=np.int64)])
        want = ~reduce_rows(fast, A, X).any(axis=1)
        inside = M.span_contains_rows(X)
        assert np.array_equal(inside, want)
        assert np.array_equal(Mt.span_contains_rows(X), want)
        assert inside[:A[:20].shape[0]].all() and inside[-3:].all()
        assert M.span_contains_rows(X[:0]).shape == Mt.span_contains_rows(X[:0]).shape == (0,)


@pytest.mark.parametrize("p", (3, 257))
def test_prime_kernel_flush_in_small_chunks(monkeypatch, p):
    """Under a 5000-byte chunk budget each flush runs through its two buffers
    a few rows at a time, often with a short last chunk: R, pivots and rank
    are those of the table kernel."""
    rng = np.random.default_rng(2000 + p)
    monkeypatch.setattr(matrix, "_CHUNK_BYTES", 5000)
    f = Field(p)
    for A in _panel_cases(p, rng)[:3]:
        a = A.astype(f.dtype)
        R, piv, rank = matrix._rref_prime(f, a)
        ref = matrix._rref_rows(f, a)
        assert np.array_equal(R, ref[0]) and (piv, rank) == ref[1:]


@pytest.mark.parametrize("p, bound_mb", [(3, 1.1), (257, 1.5)], ids=["GF3", "GF257"])
def test_prime_kernel_memory_peak(p, bound_mb):
    """A 320 x 480 matrix is eliminated in its codes, int8 with a float32
    panel over GF(3) and int16 with a float64 panel over GF(257): floats
    live only in the panel, the column vectors and two flush buffers within
    ``_CHUNK_BYTES``.  The traced peak is near 0.9 and 1.3 MB, where a float
    copy of the matrix and a temporary per chunk reach 1.4 and 2.3 MB.  The
    kernel leaves its input as it was and returns R in the field's codes."""
    f = Field(p)
    M = MatGF(f, np.random.default_rng(320).integers(0, p, (320, 480)))
    before = M.a.copy()
    tracemalloc.start()
    try:
        R = M.rref()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 10 ** 6
    assert np.array_equal(M.a, before) and M.a.dtype == f.dtype
    assert R.a.dtype == M._rref()[0].dtype == f.dtype


def _f32_top(p):
    """The largest inner dimension of float32 products over GF(p)."""
    return (matrix._F32_SUM - 1) // (p - 1) ** 2


def _inner_dims(p):
    """300, and the largest float32 inner dimension and the next, where a
    test product that wide stays small."""
    top = _f32_top(p)
    return [300] + [n for n in (top, top + 1) if 1 <= n <= 1 << 17]


# a plain floor(x * (1/103)) sends some exact multiples of 103 one quotient low
@pytest.mark.parametrize("p", (2,) + PANEL_PRIMES + (103, 4093))
def test_prime_matmul_matches_integer_reference(p):
    rng = np.random.default_rng(p)
    f = Field(p)
    top = _f32_top(p)
    assert matrix.blas_dtype(top, p) == np.float32
    assert matrix.blas_dtype(top + 1, p) == np.float64
    for n in _inner_dims(p):
        # 1200 rows at n = 300 cross the chunk boundary in float32 and float64
        rows = max(3, min(1200, (1 << 18) // n))
        A = rng.integers(0, p, (rows, n))
        B = rng.integers(0, p, (n, 7))
        A[0] = B[:, 0] = p - 1  # the largest sum, n * (p - 1)**2
        for A_in, B_in in zip(_as_input_dtypes(f, A), _as_input_dtypes(f, B)):
            assert np.array_equal(f.matmul(A_in, B_in), (A @ B) % p)
            assert np.array_equal(f.matmul(A_in[1], B_in), (A[1] @ B) % p)
            assert np.array_equal(f.matmul(A_in, B_in[:, 3]), (A @ B[:, 3]) % p)
            assert f.matmul(A_in, B_in).dtype == f.dtype
            assert f.matmul(A_in[:, :0], B_in[:0]).shape == (rows, 7)


def _rs80_generator():
    """The 320 x 480 generator of L1 of [[480,160]]: inner [[6,4]] over
    GF(3), RS[80,60] over GF(81)."""
    f3 = Field(3)
    ext = Extension(f3, 4)
    cp = concatenate(bvector_pair(f3, [1] * 6, [1] * 6), nested_grs_pair(ext, 80, 60, 60), ext)
    assert cp.L1.G.shape == (320, 480)
    return cp.L1.G


@pytest.mark.parametrize("p", (2, 3, 5))
def test_blas_matmul_matches_table_reference(monkeypatch, p):
    """The BLAS product equals the dense table product (references), in the
    field's dtype, on 0 rows, 1 row, a 1-D row, 1 column, an inner
    dimension of 1, and on several chunks: the rs80 generator against its
    transpose, and a small chunk budget that cuts 40 rows into many."""
    f = Field(p)
    rng = np.random.default_rng(70 + p)
    G = _rs80_generator() % p
    cases = [(rng.integers(0, p, (0, 6)), rng.integers(0, p, (6, 5))),
             (rng.integers(0, p, (1, 6)), rng.integers(0, p, (6, 5))),
             (rng.integers(0, p, 6), rng.integers(0, p, (6, 5))),
             (rng.integers(0, p, (8, 6)), rng.integers(0, p, (6, 1))),
             (rng.integers(0, p, (8, 1)), rng.integers(0, p, (1, 4))),
             (G[:40], G[:50].T), (G, G[:7].T)]
    assert len(G) > matrix.chunk_rows(480, 4)  # two chunks of float32 rows
    for budget in (matrix._CHUNK_BYTES, 1000):
        monkeypatch.setattr(matrix, "_CHUNK_BYTES", budget)
        for A, B in cases:
            got = f.matmul(A, B)
            assert got.dtype == f.dtype and got.shape == A.shape[:-1] + B.shape[1:]
            assert np.array_equal(got, dense_matmul(f, A.astype(np.int64), B.astype(np.int64)))


@pytest.mark.parametrize("p", (2, 3, 31, 103, 4093))
def test_reduce_mod_float32_exact_below_bound(p):
    """Every integer of magnitude within 2**16 of the float32 bound."""
    top = np.arange(matrix._F32_SUM - (1 << 16), matrix._F32_SUM)
    for x in (top, -top):
        got = matrix.reduce_mod(x.astype(np.float32), p)
        assert got.dtype == np.float32
        assert np.array_equal(got.astype(np.int64), x % p)


def test_prime_matmul_rejects_inexact_inner_dimension(monkeypatch):
    # the real bound needs an inner dimension near 1.3e8 at p = 4093; a lower
    # bound shows the check without allocating that much
    f = Field(4093)
    A = np.ones((2, 300), dtype=np.int64)
    monkeypatch.setattr(galois, "_EXACT_SUM", 300 * 4092 ** 2)
    with pytest.raises(TooLarge):
        f.matmul(A, A.T)
    assert np.array_equal(f.matmul(A[:, :299], A[:, :299].T), np.full((2, 2), 299))


# -- the packed GF(2) kernel across 64-bit word boundaries ---------------------

GF2, GF2_TABLES = FIELDS[2]
WIDTHS = (1, 7, 8, 63, 64, 65, 127, 128, 129)  # around byte and word edges


@st.composite
def gf2_matrices(draw):
    """0/1 matrices of up to 12 rows (so rows > cols for the narrow widths):
    random at a drawn density, all-zero, with duplicated rows, or of low rank."""
    cols = draw(st.sampled_from(WIDTHS))
    rows = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(("random", "zero", "duplicated", "low_rank")))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    density = draw(st.sampled_from((0.05, 0.5, 0.95)))
    A = (rng.random((rows, cols)) < density).astype(np.int64)
    if shape == "zero":
        A[:] = 0
    elif shape == "duplicated" and rows:
        A = A[rng.integers(0, rows, rows)]
    elif shape == "low_rank":
        A = (rng.integers(0, 2, (rows, 2)) @ rng.integers(0, 2, (2, cols))) % 2
    return A, rng


@settings(max_examples=200, deadline=None)
@given(gf2_matrices())
def test_gf2_packed_kernel_matches_references(case):
    A, rng = case
    ref = _scalar_rref(GF2, A)
    # sums of rows of A (in the span), random rows (mostly outside) and zeros
    X = np.concatenate([(rng.integers(0, 2, (4, A.shape[0])) @ A) % 2,
                        rng.integers(0, 2, (5, A.shape[1])),
                        np.zeros((2, A.shape[1]), dtype=np.int64)])
    B = rng.integers(0, 2, (A.shape[1], 3))
    want = ~reduce_rows(GF2_TABLES, A, X).any(axis=1)
    for A_in, X_in, B_in in zip(*(_as_input_dtypes(GF2, Y) for Y in (A, X, B))):
        M, Mt = MatGF(GF2, A_in), MatGF(GF2_TABLES, A_in)
        R, piv, rank = M.rref()
        assert np.array_equal(R.a, ref[0]) and (piv, rank) == ref[1:]
        Rt, pivt, rankt = Mt.rref()
        assert np.array_equal(R.a, Rt.a) and (piv, rank) == (pivt, rankt)
        N = M.null_space()
        assert np.array_equal(N.a, Mt.null_space().a)
        assert N.rows + rank == A.shape[1] and not GF2.matmul(A_in, N.a.T).any()
        inside = M.span_contains_rows(X_in)
        assert np.array_equal(inside, want)
        assert np.array_equal(Mt.span_contains_rows(X_in), want)
        assert inside[:4].all() and inside[-2:].all()
        assert np.array_equal(GF2.matmul(A_in, B_in), (A @ B) % 2)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_fast_kernels_match_table_kernel_at_edge_shapes(p):
    """The packed GF(2) and blocked odd-prime kernels return the R, pivots,
    rank and dtype of the table kernel (the reference path) on 0 rows, 1
    row, 1 column, the [6,12] row-profile shape, several panels of pivots
    and the 320 x 480 rs80 generator, reduced mod p, and its rank-deficient
    stack on itself."""
    f = Field(p)
    kernel = matrix._RREF[f.kind]
    rng = np.random.default_rng(90 + p)
    profile = np.concatenate([np.ones((6, 1)), np.eye(6)[:, :5], np.eye(6)], axis=1)
    G = _rs80_generator() % p
    cases = [np.zeros((0, 5)), rng.integers(0, p, (1, 7)), rng.integers(0, p, (6, 1)),
             np.zeros((3, 1)), profile, rng.integers(0, p, (150, 200)),
             (rng.integers(0, p, (150, 70)) @ rng.integers(0, p, (70, 200))) % p,
             G, np.concatenate([G[:100], G[:100]])]
    for A in cases:
        a = A.astype(f.dtype)
        R, piv, rank = kernel(f, a)
        ref = matrix._rref_rows(f, a)
        assert R.dtype == ref[0].dtype == f.dtype and R.shape == a.shape
        assert np.array_equal(R, ref[0]) and (piv, rank) == ref[1:]
        assert np.array_equal(a, A.astype(f.dtype))  # the input is left as it was


@pytest.mark.parametrize("r", [400, 300])
def test_gf2_kernel_unpacks_into_one_array(r):
    """The packed GF(2) elimination makes one (rows, cols) array, R itself,
    with the zero rows left below the pivot rows: at full and at low rank its
    traced peak stays under 1.5 bytes an entry."""
    rows, cols = 400, 600
    rng = np.random.default_rng(5)
    A = GF2.matmul(rng.integers(0, 2, (rows, r)), rng.integers(0, 2, (r, cols)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        R, pivots, rank = matrix._rref_gf2(GF2, A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank <= r and R.shape == (rows, cols) and R.dtype == GF2.dtype
    assert not R[rank:].any()
    assert peak - start <= 1.5 * rows * cols


def test_gf2_rank_at_scale():
    """A seeded 1200 x 1500 matrix of rank 1000: the rows of a 1000 x 1500
    factor that starts with an identity block, and 200 sums of them, with rows
    and columns shuffled."""
    rng = np.random.default_rng(2006)
    rows, cols, r = 1200, 1500, 1000
    basis = np.concatenate([np.eye(r, dtype=np.int64), rng.integers(0, 2, (r, cols - r))],
                           axis=1)
    A = np.concatenate([basis, GF2.matmul(rng.integers(0, 2, (rows - r, r)), basis)])
    A = A[rng.permutation(rows)][:, rng.permutation(cols)]
    M = MatGF(GF2, A)
    start = time.perf_counter()
    assert M.rank == r
    # the packed kernel takes about 0.1 s here and the table kernel about 15 s,
    # so a silent fall-back to the reference path fails this
    assert time.perf_counter() - start < 5.0
    N = M.null_space()
    assert N.rows == cols - r and not GF2.matmul(A, N.a.T).any()
    assert M.span_contains_rows(A[:50]).all()
