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
row into bytes (``np.packbits``) and clears a pivot's column from every
other row with one masked XOR over whole blocks of those bytes; GF(p^e)
with e > 1 and the GF(Q) field of an extension go through the dense tables,
one multiplication-table gather per pivot and a row update that is XOR in
characteristic 2 and an add-table gather otherwise.  That kernel works for
every field and is the reference the others are tested against.  Odd prime
fields run a blocked Gauss-Jordan on BLAS: pivots are found column by
column, each column is brought up to date with one mat-vec against the row
updates pending in the current panel of at most ``_PANEL`` pivots (none at
the start of a panel, where the column is read with no product), and each
full panel is applied to the trailing columns as one matmul.  Every value
formed there is an integer of magnitude at most ``(width + 1) * (p - 1)**2``
for a panel of ``width`` pivots, so the kernel runs in float32 where
:func:`blas_dtype` finds that exact (p <= 251 with a full panel) and in
float64 beyond; :func:`reduce_mod` brings each value back into ``[0, p)``
exactly, and the result is the same reduced row-echelon form.  The matrix
itself stays in codes of ``field.dtype`` throughout: floats live only in the
panel, the column and pivot-row vectors and two flush buffers, which
together stay within ``_CHUNK_BYTES`` and are reused across the chunks of a
flush.

Span membership (:meth:`MatGF.span_contains_rows`) is one path for every
kind.  A row ``x`` lies in the row space iff it is ``x[P] @ R[:rank]`` for
the rref ``R`` with pivot columns ``P``, which holds on ``P`` by
construction: so a row with no entry in ``P`` lies in it iff it is zero,
and any other iff ``x[F] == x[P] @ R[:rank, F]`` on the free columns ``F``,
one :meth:`Field.matmul` per chunk of rows.  That is ``x`` times the null
space, its identity block done as a comparison.

:func:`digits` and :func:`pack` are the one coding of a vector over GF(q) as
an integer, little-endian base q, for every layer of the library.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FieldMismatch

_PANEL = 64  # pivots per delayed update in the odd-prime elimination
_CHUNK_BYTES = 1 << 19  # bytes per chunked temporary
_F32_SUM = (1 << 22) - 1  # float32 sums of smaller magnitude reduce exactly
_SPAN_CHUNK = 1 << 14  # codewords per chunk of enumerate_span
_BLOCK = 32  # bytes: a GF(2) row update starts on a block, so it runs in whole vectors
# row c: 0xFF for every byte value whose bit c, in np.packbits order, is set
_BYTE_MASKS = np.ascontiguousarray(
    np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).T * np.uint8(0xFF))


def digits(codes, q, k):
    """The ``k`` little-endian base-``q`` digits of each code, along a new
    last axis (int64)."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes[..., None] // q ** np.arange(k, dtype=np.int64) % q


def pack(digits, q):
    """The codes of base-``q`` digit vectors along the last axis, little-endian
    (int64; a scalar for a 1-D input).  Digit j has weight ``q**j``, summed in
    Horner form from the top digit: numpy reduces a short last axis one row
    at a time, and so does a product with a weight vector.  ``q`` is made a
    0-d array once, as numpy converts a Python int anew for every operation."""
    digits = np.asarray(digits)
    k = digits.shape[-1]
    if not k:
        return np.zeros(digits.shape[:-1], dtype=np.int64)[()]
    q = np.asarray(q, dtype=np.int64)
    out = digits[..., k - 1].astype(np.int64)
    for j in range(k - 2, -1, -1):
        out *= q
        out += digits[..., j]
    return out[()]


def reduce_mod(x, p, scratch=None):
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

    ``t`` is written into ``scratch``, an array of ``x``'s shape and dtype,
    when one is given, and is a new temporary otherwise.
    """
    t = np.add(x, 0.5, out=scratch)
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


def as_int64(X, q, what="entries"):
    """``X`` as a new int64 array; a float entry must first be an integer in
    ``[0, q)``: 0.5, 1.9, inf and NaN raise DomainError, none is truncated."""
    X = np.asarray(X)
    # NaN fails every comparison, so it is rejected with no warning
    if X.dtype.kind == "f" and not ((X >= 0) & (X < q) & (np.trunc(X) == X)).all():
        raise DomainError(f"{what} must be integers in [0, {q})")
    return X.astype(np.int64)


def check_codes(X, q, what="entries"):
    """``X`` as an integer array checked against ``[0, q)``, in its own dtype
    when that holds q - 1; lists, non-integer arrays and narrower signed
    arrays are read as int64 by :func:`as_int64`."""
    X = np.asarray(X)
    if X.dtype.kind not in "biu" or (X.dtype.kind == "i" and 1 << 8 * X.dtype.itemsize - 1 < q):
        X = as_int64(X, q, what)
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
    """Gauss-Jordan over GF(2) on rows packed 8 columns to a byte.

    Column ``c`` is bit ``7 - c % 8`` of byte ``c // 8`` (``np.packbits``
    order), and every row is padded with zero bytes to whole blocks of
    ``_BLOCK``.  A column is read as byte masks, 0 or 0xFF a row, by one
    gather from ``_BYTE_MASKS``.  Rows stay where they are: a pivot clears
    its column from every other row by one masked XOR over the bytes from
    the block of its column on, which is exact because a pivot row vanishes
    left of its column; starting on a block keeps every row update in whole
    SIMD vectors, with no scalar tail.  The pivot rows are put in order once
    at the end and unpacked, with the rows left zero below them, into the
    one (rows, cols) array that is ``R``.
    """
    rows, cols = a.shape
    width = -(-cols // 8)
    P = np.zeros((rows, -(-width // _BLOCK) * _BLOCK), dtype=np.uint8)
    P[:, :width] = np.packbits(a, axis=1)
    free = np.full(rows, 0xFF, dtype=np.uint8)  # rows not yet a pivot row
    order, pivots = [], []
    for col in range(cols):
        if len(order) == rows:
            break
        byte = col >> 3
        mask = _BYTE_MASKS[col & 7][P[:, byte]]
        cand = mask & free
        piv = int(cand.argmax())
        if not cand[piv]:
            continue
        free[piv] = 0
        mask[piv] = 0
        lo = byte - byte % _BLOCK
        P[:, lo:] ^= mask[:, None] & P[piv, lo:]
        order.append(piv)
        pivots.append(col)
    rank = len(order)
    if rank < rows:  # every other row is zero by now: it fills R below them
        order += np.flatnonzero(free).tolist()
    R = np.unpackbits(P[order], axis=1, count=cols).view(f.dtype)
    return R, tuple(pivots), rank


def _free_columns(cols, pivots):
    free = np.ones(cols, dtype=bool)
    free[list(pivots)] = False
    return np.flatnonzero(free)


def _rref_prime(f, a):
    """Blocked Gauss-Jordan over GF(p), p odd (see the module docstring).

    The true matrix is ``A - U[:, :t] @ V[:t]`` (mod p): ``A`` is one copy
    of the input in codes of ``field.dtype``, ``V`` holds the panel's
    normalized pivot rows, which vanish left of their pivot column, and
    ``U`` the multiples of them still owed by every row.  A pivot row's
    stored row is exact when it is chosen.  The input is not modified.

    ``A``, ``U`` and ``V`` hold codes in ``[0, p)``, and ``t`` never exceeds
    the panel width, so the column update, the pivot row and the panel
    flush are each a code minus at most ``width`` products of codes:
    ``blas_dtype(width + 1, p)`` keeps them exact.  The pivot row is reduced
    once and then scaled by the pivot's inverse through the multiplication
    table.  At the start of a panel (``t == 0``) nothing is owed, so the
    column and the pivot row are read from ``A`` with no product; a flush
    zeroes the rows of ``U`` and ``V`` it applied, so a new pivot row of
    ``V`` already vanishes left of its column.  Floats live only in ``U``,
    ``V``, the column and pivot-row vectors, and the two buffers of a flush,
    which hold ``U @ V`` and :func:`reduce_mod`'s temporary for one chunk of
    rows, together within ``_CHUNK_BYTES``, and are reused across its chunks.
    """
    p = f.p
    rows, cols = a.shape
    width = min(_PANEL, rows, cols)  # no panel holds more pivots than that
    dtype = blas_dtype(width + 1, p)
    A = a.astype(f.dtype)
    U = np.zeros((rows, width), dtype=dtype)
    V = np.zeros((width, cols), dtype=dtype)
    pivots = []
    row = t = 0

    def flush():
        # apply the panel to every column right of its first pivot
        lo = pivots[-t]
        step = min(rows, chunk_rows(cols - lo, 2 * U.itemsize))
        prod = np.empty((step, cols - lo), dtype=dtype)
        scratch = np.empty_like(prod)
        for r0 in range(0, rows, step):
            blk = A[r0:r0 + step, lo:]
            n = blk.shape[0]
            x = np.matmul(U[r0:r0 + n, :t], V[:t, lo:], out=prod[:n])
            np.subtract(blk, x, out=x)
            np.copyto(blk, reduce_mod(x, p, scratch[:n]), casting="unsafe")
        U[:, :t] = 0
        V[:t] = 0

    for col in range(cols):
        if row >= rows:
            break
        c = A[:, col].astype(dtype)
        if t:
            c -= U[:, :t] @ V[:t, col]
            reduce_mod(c, p)
        nz = np.flatnonzero(c[row:])
        if not nz.size:
            continue
        piv = row + int(nz[0])
        if piv != row:
            A[[row, piv]] = A[[piv, row]]
            U[[row, piv]] = U[[piv, row]]
            c[[row, piv]] = c[[piv, row]]
        lead = A[row, col:]
        if t:
            lead = reduce_mod(lead - U[row, :t] @ V[:t, col:], p).astype(np.intp)
        lead = f.mul_table[f.inv(int(c[row]))][lead]
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
    return A, tuple(pivots), row


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
        self._span_cache = None  # pivots, free columns and R[:rank, free]

    # -- constructors --------------------------------------------------------

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

    def __repr__(self):
        return f"MatGF({self.rows}x{self.cols} over GF({self.field.q}))"

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

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

    def span_contains_rows(self, X):
        """Boolean mask: which rows of ``X`` lie in the row space (see the
        module docstring).  The pivot and free columns and ``R[:rank, free]``
        are worked out on the first call and kept.  Rows go in chunks whose
        float32 operand and product on a prime field, ``cols`` columns
        together, stay within ``_CHUNK_BYTES``: temporaries for a whole batch
        at once would be fresh memory, slower to touch on a first call."""
        X = as_codes(self.field, X)
        if X.ndim != 2 or X.shape[1] != self.cols:
            raise DomainError(f"expected a 2-D array of rows of length {self.cols}")
        if self._span_cache is None:
            R, pivots, rank = self._rref()
            free = _free_columns(self.cols, pivots)
            self._span_cache = np.array(pivots, dtype=np.intp), free, R[:rank, free]
        pivots, free, R_free = self._span_cache
        mask = ~X.any(axis=1)  # right for every row with no pivot entry
        rows = np.flatnonzero(X[:, pivots].any(axis=1))
        step = chunk_rows(self.cols, 4)
        for lo in range(0, rows.size, step):
            r = rows[lo:lo + step]
            x = X[r]
            mask[r] = (x[:, free] == self.field.matmul(x[:, pivots], R_free)).all(axis=1)
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
