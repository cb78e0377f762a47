"""Dense exact linear algebra over a finite field.

A :class:`MatGF` wraps a 2-D numpy array of element codes together with the
field the codes live in.  Elimination uses first-nonzero pivoting; fields are
exact so no numerical strategy is needed.  Intended scale is desk-size
(dimensions up to a few thousand).

The array has the field's element-code dtype, ``field.dtype``: ``np.int8``
for q <= 128, ``np.int16`` above, signed so that the difference of two codes
cannot wrap.  Every result of elimination is in that dtype too.  Caller input
of any integer dtype is checked against ``[0, q)`` in its own dtype before it
is narrowed (:func:`as_codes`), so no out-of-range entry can wrap into a code.

Elimination picks its kernel from the field's ``kind``.  GF(2) packs each
row into 64-bit words and clears a pivot's column from every other row with
one masked XOR over those words; GF(p^e) with e > 1 and the GF(Q) field of
an extension go through the dense tables, one multiplication-table gather
per pivot and a row update that is XOR in characteristic 2 and an add-table
gather otherwise.  That kernel works for every field and is the reference
the others are tested against.  Odd prime fields run a blocked Gauss-Jordan on
BLAS: pivots are found column by column, each column is brought up to date
with one mat-vec against the row updates pending in the current panel of at
most ``_PANEL`` pivots, and each full panel is applied to the trailing
columns as one matmul.  Every value formed there is an integer of magnitude
at most ``(width + 1) * (p - 1)**2`` for a panel of ``width`` pivots, so the
kernel runs in float32 where :func:`blas_dtype` finds that exact (p <= 251
with a full panel) and in float64 beyond; :func:`reduce_mod` brings each
value back into ``[0, p)`` exactly, and the result is the same reduced
row-echelon form.  Span reduction against the rref over any prime field,
GF(2) included, is one matmul per chunk of rows on BLAS as well, with its
float type from the same rule.

:func:`digits` and :func:`pack` are the one coding of a vector over GF(q) as
an integer, little-endian base q, for every layer of the library.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FieldMismatch, Singular

_PANEL = 64  # pivots per delayed update in the odd-prime elimination
_CHUNK_BYTES = 1 << 19  # bytes per chunked temporary
_F32_SUM = (1 << 22) - 1  # float32 sums of smaller magnitude reduce exactly
_SPAN_CHUNK = 1 << 14  # codewords per chunk of enumerate_span


def digits(codes, q, k):
    """The ``k`` little-endian base-``q`` digits of each code, along a new
    last axis (int64)."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[..., None] // q ** np.arange(k, dtype=np.int64) % q


def pack(digits, q):
    """The codes of base-``q`` digit vectors along the last axis, little-endian
    (int64; a scalar for a 1-D input).  Digit j has weight ``q**j``, summed in
    Horner form, since numpy reduces a short last axis one row at a time."""
    digits = np.asarray(digits)
    out = np.zeros(digits.shape[:-1], dtype=np.int64)
    for j in range(digits.shape[-1] - 1, -1, -1):
        out *= q
        out += digits[..., j]
    return out[()]


def reduce_mod(x, p):
    """Reduce the integer-valued float array ``x`` modulo ``p`` in place.

    ``(x + 0.5) / p`` lies at least ``0.5 / p`` away from every integer, so
    the floor is the exact quotient while the rounding error of ``t`` stays
    below that.  With a u-bit significand, ``1 / p`` and the product each
    carry a relative error of at most ``2**-u``, so ``t`` is off by at most
    ``|x + 0.5| * 2**(1 - u) * (1 + 2**-u) / p``:

    * float64 (u = 53): exact while ``|x| < 2**51``;
    * float32 (u = 24): exact while ``|x| < 2**22 - 1`` (``_F32_SUM``), as
      then ``|x + 0.5| * (1 + 2**-24) < 2**22``.  ``x + 0.5`` and
      ``floor(t) * p <= |x| + p`` are exact below ``2**23``, so is ``x - t``.
    """
    t = x + 0.5
    t *= 1.0 / p
    np.floor(t, out=t)
    t *= p
    x -= t
    return x


def blas_dtype(n, p):
    """The float type for exact sums of ``n`` products of codes of GF(p).

    Such a sum, and a code minus such a sum, has magnitude at most
    ``n * (p - 1)**2``.  Every partial sum is an integer of no larger
    magnitude, exact in float32 below ``2**24`` whatever order BLAS adds in,
    so float32 is exact up to the :func:`reduce_mod` bound ``_F32_SUM``;
    beyond it float64 is used.
    """
    return np.float32 if n * (p - 1) ** 2 < _F32_SUM else np.float64


def chunk_rows(width, itemsize=8):
    """Rows per chunk that keep a temporary of ``width`` columns of
    ``itemsize``-byte entries near ``_CHUNK_BYTES``."""
    return max(1, _CHUNK_BYTES // (itemsize * max(1, width)))


def check_codes(X, q, what="entries"):
    """``X`` as an integer array checked against ``[0, q)``, in its own dtype
    when that holds q - 1; lists, non-integer arrays and narrower signed
    arrays are read as int64."""
    X = np.asarray(X)
    if X.dtype.kind not in "biu" or (X.dtype.kind == "i" and 1 << 8 * X.dtype.itemsize - 1 < q):
        X = X.astype(np.int64)
    # read as unsigned, a negative entry is at least 2**(bits - 1) >= q, so
    # one max checks both ends
    if X.size and X.view(f"u{X.dtype.itemsize}").max() >= q:
        raise DomainError(f"{what} must lie in [0, {q})")
    return X


def as_codes(field, X, what="entries"):
    """``X`` as codes of ``field.dtype``, checked by :func:`check_codes`."""
    return check_codes(X, field.q, what).astype(field.dtype, copy=False)


def _rref_rows(f, a):
    """Gauss-Jordan one pivot at a time through the dense tables (reference)."""
    A = a.copy()
    rows, cols = A.shape
    pivots = []
    row = 0
    for col in range(cols):
        if row >= rows:
            break
        nz = np.flatnonzero(A[row:, col])
        if not nz.size:
            continue
        piv = row + int(nz[0])
        if piv != row:
            A[[row, piv]] = A[[piv, row]]
        lead = int(A[row, col])
        if lead != 1:
            A[row] = f.mul(f.inv(lead), A[row])
        nz = np.flatnonzero(A[:, col])
        nz = nz[nz != row]
        if nz.size:
            A[nz] = f.sub(A[nz], f.mul(A[nz, col][:, None], A[row][None, :]))
        pivots.append(col)
        row += 1
    return A, tuple(pivots), row


def _rref_gf2(f, a):
    """Gauss-Jordan over GF(2) on rows packed 64 columns to a uint64 word.

    Column ``c`` is bit ``7 - c % 8`` of byte ``c // 8`` (``np.packbits``
    order).  Rows stay where they are: a pivot clears its column from every
    other row by one masked XOR over the words from its own on, which is
    exact because a pivot row vanishes left of its column.  The pivot rows
    are put in order once at the end.
    """
    rows, cols = a.shape
    P8 = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    P8[:, :-(-cols // 8)] = np.packbits(a, axis=1)
    P = P8.view(np.uint64)
    free = np.full(rows, 0xFF, dtype=np.uint8)  # rows not yet a pivot row
    order, pivots = [], []
    for col in range(cols):
        if len(order) == rows:
            break
        shift = 7 - (col & 7)
        bits = P8[:, col >> 3] >> shift
        bits &= 1
        cand = bits & free
        piv = int(cand.argmax())
        if not cand[piv]:
            continue
        free[piv] = 0
        bits[piv] = 0
        w = col >> 6
        P[:, w:] ^= bits.astype(np.uint64)[:, None] * P[piv, w:]
        order.append(piv)
        pivots.append(col)
    R = np.zeros((rows, cols), dtype=f.dtype)
    R[:len(order)] = np.unpackbits(P8[order], axis=1, count=cols)
    return R, tuple(pivots), len(order)


def _free_columns(cols, pivots):
    free = np.ones(cols, dtype=bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def _blas_residuals(p, pivots, free, R, X):
    """Residuals of the rows of ``X`` against the reduced rows ``R`` over
    GF(p), on BLAS (exact: see :func:`blas_dtype`), one chunk of rows at a
    time.

    ``pivots`` and ``free`` are the pivot columns of ``R`` and the others.
    Since ``R`` is reduced, eliminating pivot by pivot subtracts exactly
    ``X[:, pivots] @ R``, and the residual vanishes on the pivot columns.
    Yields ``(rows, resid)``: the indices of the rows with a nonzero entry
    in a pivot column and their residuals on the free columns, as floats in
    ``[0, p)``.  Every other row is its own residual.
    """
    dtype = blas_dtype(X.shape[1], p)
    step = chunk_rows(X.shape[1], np.dtype(dtype).itemsize)
    Rf = None  # converted only once a row needs it
    for lo in range(0, X.shape[0], step):
        x = X[lo:lo + step]
        rows = np.flatnonzero(x[:, pivots].any(axis=1))
        if rows.size:
            if Rf is None:
                Rf = R[:, free].astype(dtype)
            x = x[rows]
            resid = x[:, free].astype(dtype)
            resid -= x[:, pivots].astype(dtype) @ Rf
            yield lo + rows, reduce_mod(resid, p)


def _rref_prime(f, a):
    """Blocked Gauss-Jordan over GF(p), p odd (see the module docstring).

    The true matrix is ``A - U[:, :t] @ V[:t]`` (mod p): ``V`` holds the
    panel's normalized pivot rows, which vanish left of their pivot column,
    and ``U`` the multiples of them still owed by every row.  A pivot row's
    stored row is exact when it is chosen.

    ``A``, ``U`` and ``V`` hold codes in ``[0, p)``, and ``t`` never exceeds
    the panel width, so the column update, the pivot row and the panel
    flush are each a code minus at most ``width`` products of codes:
    ``blas_dtype(width + 1, p)`` keeps them exact.  The pivot row is reduced
    before it is scaled by the pivot's inverse, so the product of two codes
    stays below ``p**2``.
    """
    p = f.p
    rows, cols = a.shape
    width = min(_PANEL, rows, cols)  # no panel holds more pivots than that
    dtype = blas_dtype(width + 1, p)
    A = a.astype(dtype)
    U = np.zeros((rows, width), dtype=dtype)
    V = np.zeros((width, cols), dtype=dtype)
    pivots = []
    row = t = 0

    def flush():
        # apply the panel to every column right of its first pivot
        lo = pivots[-t]
        step = chunk_rows(cols - lo, A.itemsize)
        for r0 in range(0, rows, step):
            blk = A[r0:r0 + step, lo:]
            blk -= U[r0:r0 + step, :t] @ V[:t, lo:]
            reduce_mod(blk, p)
        U[:, :t] = 0

    for col in range(cols):
        if row >= rows:
            break
        c = A[:, col] - U[:, :t] @ V[:t, col]
        reduce_mod(c, p)
        nz = np.flatnonzero(c[row:])
        if not nz.size:
            continue
        piv = row + int(nz[0])
        if piv != row:
            A[[row, piv]] = A[[piv, row]]
            U[[row, piv]] = U[[piv, row]]
            c[[row, piv]] = c[[piv, row]]
        lead = A[row, col:] - U[row, :t] @ V[:t, col:]
        reduce_mod(lead, p)
        lead *= f.inv(int(c[row]))
        reduce_mod(lead, p)
        V[t, :col] = 0
        V[t, col:] = lead
        A[row, :col] = 0
        A[row, col:] = lead
        U[row, :t] = 0
        c[row] = 0
        U[:, t] = c
        pivots.append(col)
        row += 1
        t += 1
        if t == width:
            flush()
            t = 0
    if t:
        flush()
    return A.astype(f.dtype), tuple(pivots), row


# Field.kind -> elimination kernel
_RREF = {"gf2": _rref_gf2, "prime": _rref_prime, "tables": _rref_rows}


class MatGF:
    """A matrix over a finite field.

    Parameters
    ----------
    field : Field
        Element arithmetic provider.
    array : array-like of int
        2-D array of element codes in ``[0, field.q)``, kept as
        ``field.dtype`` (without a copy when it already is).
    """

    def __init__(self, field, array):
        a = as_codes(field, array)
        if a.ndim == 1:
            a = a[None, :]
        if a.ndim != 2:
            raise DomainError("matrix must be 2-D")
        self.field = field
        self.a = a
        self._rref_cache = None
        self._span_cache = None  # pivot and free column indices for reduce_rows

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=field.dtype))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=field.dtype))

    # -- basic structure -----------------------------------------------------

    @property
    def rows(self):
        return self.a.shape[0]

    @property
    def cols(self):
        return self.a.shape[1]

    def copy(self):
        return MatGF(self.field, self.a.copy())

    def __eq__(self, other):
        return (isinstance(other, MatGF) and self.field == other.field
                and self.a.shape == other.a.shape
                and np.array_equal(self.a, other.a))

    def __hash__(self):  # pragma: no cover - rarely useful
        return hash((self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"MatGF({self.rows}x{self.cols} over GF({self.field.q}))"

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    # -- arithmetic ----------------------------------------------------------

    @property
    def T(self):
        return MatGF(self.field, self.a.T.copy())

    def stack(self, other):
        self._check_field(other)
        return MatGF(self.field, np.concatenate([self.a, other.a], axis=0))

    def hstack(self, other):
        self._check_field(other)
        return MatGF(self.field, np.concatenate([self.a, other.a], axis=1))

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row-echelon form.

        Returns ``(R, pivots, rank)`` where ``R`` is a new MatGF with the
        same row space, ``pivots`` is the tuple of pivot column indices and
        ``rank`` is the number of nonzero rows.
        """
        R, piv, rank = self._rref()
        return MatGF(self.field, R.copy()), piv, rank

    def _rref(self):
        """The cached :meth:`rref` with ``R`` as a bare array; it must not be
        modified."""
        if self._rref_cache is None:
            f = self.field
            self._rref_cache = _RREF[f.kind](f, self.a)
        return self._rref_cache

    @property
    def rank(self):
        return self._rref()[2]

    def invert(self):
        """Matrix inverse; raises Singular unless square and full rank."""
        if self.rows != self.cols:
            raise Singular("only square matrices can be inverted")
        aug = self.hstack(MatGF.identity(self.field, self.rows))
        R, pivots, rank = aug.rref()
        if rank < self.rows or any(p >= self.rows for p in pivots[: self.rows]):
            raise Singular("matrix is singular")
        return MatGF(self.field, R.a[:, self.rows:])

    def null_space(self):
        """Full-rank matrix whose rows span {y : self @ y^t = 0}."""
        R, pivots, rank = self._rref()
        pivots = list(pivots)
        free = _free_columns(self.cols, pivots)
        basis = np.zeros((free.size, self.cols), dtype=self.field.dtype)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = self.field.neg(R[:rank, free]).T
        return MatGF(self.field, basis)

    # -- span queries --------------------------------------------------------

    def reduce_vector(self, v):
        """Residual of ``v`` after elimination against this matrix's rref rows."""
        return self.reduce_rows(np.asarray(v)[None, :])[0]

    def span_contains(self, v):
        """True iff ``v`` lies in the row space."""
        v = np.asarray(v).reshape(-1)
        if v.shape[0] != self.cols:
            raise DomainError("vector length mismatch")
        return not self.reduce_vector(v).any()

    def _checked_rows(self, X):
        X = as_codes(self.field, X)
        if X.shape[-1] != self.cols:
            raise DomainError("vector length mismatch")
        return X

    def _residuals(self, X):
        """:func:`_blas_residuals` of ``X`` against the cached rref (prime
        fields)."""
        R, pivots, rank = self._rref()
        if self._span_cache is None:
            self._span_cache = (np.array(pivots, dtype=np.intp),
                                _free_columns(self.cols, pivots))
        return _blas_residuals(self.field.p, *self._span_cache, R[:rank], X)

    def reduce_rows(self, X):
        """Vectorized :meth:`reduce_vector` for a batch of row vectors."""
        return self._reduce(self._checked_rows(X))

    def _reduce(self, X):
        """:meth:`reduce_rows` of rows already checked by :meth:`_checked_rows`."""
        f = self.field
        if f.kind != "tables":
            out = X.copy()
            residuals = self._residuals(X)
            pivots, free = self._span_cache
            for rows, resid in residuals:
                x = out[rows]
                x[:, pivots] = 0
                x[:, free] = resid
                out[rows] = x
            return out
        R, pivots, rank = self._rref()
        X = X.copy()
        for r, pc in enumerate(pivots):
            nz = np.flatnonzero(X[:, pc])
            if nz.size:
                X[nz] = f.sub(X[nz], f.mul(X[nz, pc][:, None], R[r][None, :]))
        return X

    def span_contains_rows(self, X):
        """Boolean mask: which rows of ``X`` lie in the row space.

        Over a prime field the mask is filled chunk by chunk from the
        residuals, with no residual copy of the batch.
        """
        X = self._checked_rows(X)
        if self.field.kind == "tables":
            return ~self._reduce(X).any(axis=1)
        mask = ~X.any(axis=1)  # right for every row with no pivot entry
        if mask.all():
            return mask
        for rows, resid in self._residuals(X):
            mask[rows] = ~resid.any(axis=1)
        return mask

    def same_row_space(self, other):
        self._check_field(other)
        if self.cols != other.cols:
            return False
        r1 = self._rref()
        r2 = other._rref()
        if r1[2] != r2[2]:
            return False
        return np.array_equal(r1[0][: r1[2]], r2[0][: r2[2]])


def enumerate_span(field, G):
    """Yield chunks of all codewords in the row space of ``G`` (numpy array).

    Messages run over the base-q digits of 0, ..., q^rows - 1; each yielded
    chunk is a 2-D array of codewords.  The zero word is included.
    """
    G = np.asarray(G)
    q, rows = field.q, G.shape[0]
    total = q ** rows
    for lo in range(0, total, _SPAN_CHUNK):
        msgs = digits(np.arange(lo, min(total, lo + _SPAN_CHUNK)), q, rows)
        yield field.matmul(msgs, G)
