"""Dense exact linear algebra over a finite field.

A :class:`MatGF` wraps a 2-D numpy integer array of element codes together
with the field the codes live in.  Elimination uses first-nonzero pivoting;
fields are exact so no numerical strategy is needed.  Intended scale is
desk-size (dimensions up to a few thousand).

Elimination and span reduction share one row-update kernel per kind of
field, chosen from the field's ``kind``: XOR on bytes for GF(2), addition of
precomputed row multiples on 16-bit integers for other prime fields, and the
dense add/mul tables for everything else.  The table kernel works for every
field and is the reference the others are tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, FieldMismatch, Singular


# Each kernel subtracts ``coef[i] * row`` from row ``nz[i]`` of ``X`` in place,
# where ``coef`` holds the entries of ``X[nz]`` in the column of ``row``'s
# leading 1.

def _update_tables(f, X, nz, coef, row):
    X[nz] = f.sub(X[nz], f.mul(coef[:, None], row[None, :]))


def _update_prime(f, X, nz, coef, row):
    # one multiple (-c * row) % p per distinct coefficient c; the sums then
    # stay below 2p, so one conditional subtraction replaces a % over X[nz]
    p = f.p
    cs, which = np.unique(coef, return_inverse=True)
    minus = ((p - cs.astype(np.int64))[:, None] * row) % p
    sub = X[nz] + minus.astype(X.dtype)[which]
    sub -= (sub >= p) * X.dtype.type(p)
    X[nz] = sub


def _update_gf2(f, X, nz, coef, row):
    X[nz] ^= row  # every nonzero coefficient is 1


# kind -> (working dtype, row update).  The working dtype holds every
# intermediate value: 0/1 under XOR, and sums below 2p for the prime update,
# which fit 16 bits for every p below the 4096 table cap of Field.
_KERNELS = {"gf2": (np.uint8, _update_gf2),
            "prime": (np.int16, _update_prime),
            "tables": (np.int64, _update_tables)}


class MatGF:
    """A matrix over a finite field.

    Parameters
    ----------
    field : Field (or extension field view)
        Element arithmetic provider.
    array : array-like of int
        2-D array of element codes in ``[0, field.q)``.
    """

    def __init__(self, field, array):
        a = np.asarray(array, dtype=np.int64)
        if a.ndim == 1:
            a = a[None, :]
        if a.ndim != 2:
            raise DomainError("matrix must be 2-D")
        if a.size and (a.min() < 0 or a.max() >= field.q):
            raise DomainError("entries are not codes of the declared field")
        self.field = field
        self.a = a
        self._rref_cache = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field, n):
        return cls(field, np.eye(n, dtype=np.int64))

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

    def __add__(self, other):
        self._check_field(other)
        return MatGF(self.field, self.field.add(self.a, other.a))

    def __sub__(self, other):
        self._check_field(other)
        return MatGF(self.field, self.field.sub(self.a, other.a))

    def __matmul__(self, other):
        self._check_field(other)
        return MatGF(self.field, self.field.matmul(self.a, other.a))

    def scale(self, c):
        carr = np.full_like(self.a, int(c))
        return MatGF(self.field, self.field.mul(carr, self.a))

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
        return MatGF(self.field, R.astype(np.int64)), piv, rank

    def _rref(self):
        """The cached :meth:`rref` with ``R`` as a bare array in the kernel's
        working dtype; it must not be modified."""
        if self._rref_cache is None:
            f = self.field
            dtype, update = _KERNELS[f.kind]
            A = self.a.astype(dtype)
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
                    update(f, A, nz, A[nz, col], A[row])
                pivots.append(col)
                row += 1
            self._rref_cache = (A, tuple(pivots), row)
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
        free = np.ones(self.cols, dtype=bool)
        free[pivots] = False
        free = np.flatnonzero(free)
        basis = np.zeros((free.size, self.cols), dtype=np.int64)
        basis[np.arange(free.size), free] = 1
        basis[:, pivots] = self.field.neg(R[:rank, free]).T
        return MatGF(self.field, basis)

    # -- span queries --------------------------------------------------------

    def reduce_vector(self, v):
        """Residual of ``v`` after elimination against this matrix's rref rows."""
        return self.reduce_rows(np.asarray(v, dtype=np.int64)[None, :])[0]

    def span_contains(self, v):
        """True iff ``v`` lies in the row space."""
        v = np.asarray(v, dtype=np.int64).reshape(-1)
        if v.shape[0] != self.cols:
            raise DomainError("vector length mismatch")
        return not self.reduce_vector(v).any()

    def reduce_rows(self, X):
        """Vectorized :meth:`reduce_vector` for a batch of row vectors."""
        f = self.field
        dtype, update = _KERNELS[f.kind]
        R, pivots, _ = self._rref()
        X = np.asarray(X, dtype=np.int64)
        if X.size and (X.min() < 0 or X.max() >= f.q):
            raise DomainError("entries are not codes of the declared field")
        X = X.astype(dtype)
        for r, pc in enumerate(pivots):
            nz = np.flatnonzero(X[:, pc])
            if nz.size:
                update(f, X, nz, X[nz, pc], R[r])
        return X.astype(np.int64)

    def span_contains_rows(self, X):
        """Boolean mask: which rows of ``X`` lie in the row space."""
        return ~self.reduce_rows(X).any(axis=1)

    def same_row_space(self, other):
        self._check_field(other)
        if self.cols != other.cols:
            return False
        r1 = self._rref()
        r2 = other._rref()
        if r1[2] != r2[2]:
            return False
        return np.array_equal(r1[0][: r1[2]], r2[0][: r2[2]])

    # -- serialization -------------------------------------------------------

    def to_text(self):
        lines = [f"{self.rows} {self.cols}"]
        for row in self.a:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, field, text):
        tokens = text.split()
        if len(tokens) < 2:
            raise DomainError("matrix text too short")
        rows, cols = int(tokens[0]), int(tokens[1])
        vals = [int(t) for t in tokens[2: 2 + rows * cols]]
        if len(vals) != rows * cols:
            raise DomainError("matrix text truncated")
        return cls(field, np.array(vals, dtype=np.int64).reshape(rows, cols))


def enumerate_span(field, G, chunk=1 << 14):
    """Yield chunks of all codewords in the row space of ``G`` (numpy array).

    Messages run over all q^rows mixed-radix tuples; each yielded chunk is a
    2-D array of codewords.  The zero word is included.
    """
    G = np.asarray(G, dtype=np.int64)
    rows = G.shape[0]
    q = field.q
    total = q ** rows
    pows = q ** np.arange(rows, dtype=np.int64)
    for lo in range(0, total, chunk):
        hi = min(total, lo + chunk)
        idx = np.arange(lo, hi, dtype=np.int64)
        msgs = (idx[:, None] // pows) % q
        yield field.matmul(msgs, G)
