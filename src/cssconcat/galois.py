"""Finite-field arithmetic: GF(p^e) base fields and GF(q^k) extensions.

Elements of GF(p^e) are represented as integers in ``[0, q)`` whose base-p
digits (little-endian) are the coefficients of the residue polynomial modulo
the irreducible field polynomial.  Elements of an extension GF(q^k) are
integers in ``[0, Q)`` whose base-q digits are the coordinates in the power
basis ``(1, alpha, ..., alpha^(k-1))`` of a root ``alpha`` of a primitive
polynomial ``f`` over GF(q).

With this packing the two layers compose: the base-p digits of an extension
code are exactly the ``e*k`` GF(p)-coordinates of the element, so addition
depends only on the characteristic.  In characteristic 2 a code is the bit
string of those coordinates: addition and subtraction are XOR, negation is
the identity, and no add table is stored.  In odd characteristic addition is
a digit-wise sum mod p, read from a dense add table that is composed digit
by digit from the p x p table of GF(p), one broadcast sum per digit written
straight into the next table in the field dtype, where every sum fits
(:func:`_digit_sum_tables`); negation likewise.
Sums along an axis (:meth:`Field.add_reduce`) add pairwise through it.

:class:`Field` is the only class that does element arithmetic, and every
field, GF(p^e) and the GF(Q) field of an extension
(:meth:`Extension.as_field`) alike, is built one way.  Multiplication by a
generator g is GF(p)-linear on the base-p digits of a code, a K x K matrix
over GF(p); the power table of g doubles from it and certifies itself
(:func:`_power_table`), and the multiplication and inverse tables are read
off its log/exp.  For GF(p^e) g is the first element code whose matrix has
order q - 1, which is x only for a primitive modulus; for an extension it is
the primitive root alpha.  Irreducibility (Rabin's test) and primitivity are
tested on the same matrices.  One search, :func:`_first_polynomial`, finds
the default modulus, the default primitive polynomial and the rootless
polynomial of :func:`enlarge.fixed_point_free_matrix`: the first polynomial
of a degree whose low coefficients, c_0 != 0, come first in code order and
pass a test.  Its results and the generators are kept by value: the modulus
and generator searches are ``functools.cache`` functions of (p, e) and of
(p, modulus tuple), and primitive polynomials are kept by the base field's
value key, so no field's tables are kept alive.  An :class:`Extension`
keeps the structure: the primitive root, coordinates, trace, dual
coordinates, bases and multiplication matrices.  One cap, ``_TABLE_CAP`` = 8192, bounds the order of
every field and extension, checked when it is built.

Trace form.  The trace is GF(q)-linear, so for x = sum_i c_i alpha^i,
Tr(x alpha^j) = sum_i c_i Tr(alpha^(i+j)).  The (Q, k) table of trace-dual
coordinates, ``dual_table``, is therefore ``coord_table . T`` over GF(q),
with T[i, j] = Tr(alpha^(i+j)) the k x k Hankel matrix of the 2k - 1 traces
of alpha^m, m < 2k - 1, each the sum of its k conjugates alpha^(m q^i).  The
trace table is its column 0.  So the tables cost one (Q, k) x (k, k) product
over GF(q) and no product or sum over GF(Q) per element.

Self-dual bases.  :meth:`Extension.self_dual_basis` runs Gram-Schmidt on the
trace form B(x, y) = Tr(xy) over a boolean mask of all Q codes.  A code is a
candidate when B(x, x) is a nonzero square of GF(q) and x is orthogonal to
every element chosen so far; each step appends v / c for the least candidate
v and the least square root c of B(v, v), then clears the codes not
orthogonal to it.  The chosen elements are orthonormal, so the complement W
left over is nondegenerate.  In characteristic 2, B(x, x) = Tr(x)^2, and on
W, Tr(x) = B(x, w) for w = 1 + sum of the chosen elements, the part of 1 in
W.  So the form on W is alternating, and the pass stuck, exactly when w = 0,
that is when 1 lies in the span of the chosen elements.  Until the last step
the multiples of w are cleared too, which keeps 1 out of that span; they are
never orthogonal to the next element b, as B(w, b) = Tr(b) = 1, so they are
cleared for good.  With dim W = d >= 2, (q - 1) q^(d-1) codes of W have
nonzero trace and at most q - 1 of them are multiples of w, so a candidate
remains; at the last step W is spanned by w, and B(w, w) = Tr(w) = Tr(w)^2
is nonzero, so 1.  For odd q a nondegenerate form of dimension >= 2 takes
every nonzero square as a value, so only the last step can fail: W is
spanned by some u, and B(u, u) is a square exactly when the discriminant of
B is.  When it is not, no orthonormal basis exists, which happens exactly
when k is even (Seroussi and Lempel, "Factorization of symmetric matrices
and trace-orthogonal bases in finite fields", SIAM J. Comput. 9, 1980), and
None is returned.

Codes split into digits and pack back through :func:`matrix.digits` and
:func:`matrix.pack`, the one coding.  An extension inverts its trace-dual
coordinates once: ``from_dual_table`` inverts the packed ``dual_table``.

Every field has one element-code dtype, ``dtype``, worked out from its order:
``np.int8`` when q <= 128 and ``np.int16`` otherwise (no order passes the
8192 cap).  Its tables hold codes in that dtype, so table gathers return it,
and so do matrix products.  It is signed so that the difference of two codes
cannot wrap.  Arithmetic other than a gather (products, sums of products)
widens first.

:meth:`Field.matmul` is the one matrix product.  Prime fields run it on
BLAS; every other field (``kind == "tables"``) gathers from its
multiplication table, reading each row of the left operand by its nonzero
entries only, so a sparse row, such as a short error locator or the symbols
of a few bad blocks, costs its weight.

All operations accept plain ints or numpy integer arrays and are pure; field
objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from functools import cache, cached_property

import numpy as np

from .errors import DivisionByZero, DomainError, NotABasis, NotPrimitive, TooLarge
from .matrix import MatGF, blas_dtype, check_codes, chunk_rows, digits, pack, reduce_mod

_TABLE_CAP = 1 << 13  # largest field or extension order: dense Q x Q tables

_SCALAR_TYPES = (int, np.integer)


# ----------------------------------------------------------------------------
# matrices over GF(p): multiplication maps, their orders, Rabin's test
# ----------------------------------------------------------------------------

def _prime_factors(n):
    primes, r = set(), 2
    while r * r <= n:
        if n % r == 0:
            primes.add(r)
            n //= r
        else:
            r += 1
    if n > 1:
        primes.add(n)
    return primes


def _mat_pow(M, n, p):
    """``M^n`` over GF(p) by repeated squaring."""
    R = np.eye(len(M), dtype=np.int64)
    while n:
        if n & 1:
            R = R @ M % p
        n >>= 1
        if n:
            M = M @ M % p
    return R


def _has_order(M, n, p):
    """Whether ``M`` has multiplicative order exactly ``n`` over GF(p):
    M^(n/r) != I for each prime r | n, and M^n = I."""
    eye = np.eye(len(M), dtype=np.int64)
    return not any(np.array_equal(_mat_pow(M, n // r, p), eye)
                   for r in _prime_factors(n)) and np.array_equal(_mat_pow(M, n, p), eye)


def _shift_matrix(top):
    """The K x K matrix of multiplication by the root of a monic polynomial
    on base-p digit rows, given its last e rows ``top`` (e x K): every other
    row l + e j is the unit row l + e (j + 1)."""
    e, K = top.shape
    P = np.zeros((K, K), dtype=np.int64)
    P[np.arange(K - e), np.arange(e, K)] = 1
    P[K - e:] = top
    return P


def _companion(coeffs, p):
    """The companion matrix over GF(p) of a monic polynomial (coefficients
    low-degree first): multiplication by x on digit rows modulo it."""
    return _shift_matrix((-np.asarray(coeffs[:-1], dtype=np.int64))[None, :] % p)


def _is_irreducible(coeffs, p):
    """Rabin's irreducibility test for a monic polynomial f of degree e over
    GF(p), on its companion matrix C: x^(p^e) = x (mod f) is C^(p^e) = C, and
    x^(p^(e/r)) - x is prime to f for each prime r | e exactly when
    C^(p^(e/r)) - C has full rank."""
    e = len(coeffs) - 1
    if e <= 0:
        return False
    C = _companion(coeffs, p)
    if not np.array_equal(_mat_pow(C, p ** e, p), C):
        return False
    return all(MatGF(Field(p), (_mat_pow(C, p ** (e // r), p) - C) % p).rank == e
               for r in _prime_factors(e))


def _exceeds_cap(p, e):
    """Whether p^e > ``_TABLE_CAP`` for p >= 2, forming only small powers."""
    return p > _TABLE_CAP or e >= _TABLE_CAP.bit_length() or p ** e > _TABLE_CAP


def _first_polynomial(q, d, accepts):
    """The low coefficients c (c_0 != 0) of the first degree-d polynomial
    over GF(q), in code order, that ``accepts(c)`` takes, or None."""
    for code in range(1, q ** d):
        c = [int(x) for x in digits(code, q, d)]
        if c[0] and accepts(c):
            return c
    return None


@cache
def _find_irreducible(p, e):
    """The first monic irreducible polynomial of degree e >= 2 over GF(p)."""
    c = _first_polynomial(p, e, lambda c: _is_irreducible(c + [1], p))
    if c is None:
        raise DomainError(f"no irreducible polynomial of degree {e} over GF({p})")
    return c + [1]


def _is_prime(n):
    return n >= 2 and _prime_factors(n) == {n}


_EXACT_SUM = 1 << 51  # float64 sums below this reduce exactly (matrix.reduce_mod)


def code_dtype(q):
    """The element-code dtype of a field of order ``q`` (see the module
    docstring)."""
    return np.dtype(np.int8 if q <= 128 else np.int16)


def _power_table(P, p, Q):
    """The power table of the element g of a field of order Q = p^K whose
    multiplication matrix over GF(p) is ``P`` (K x K, acting on the base-p
    digit rows of codes).

    Returns (exp, log) or None unless the table certifies that g generates
    the multiplicative group: g^0, ..., g^(Q-2) are nonzero and distinct and
    g^(Q-1) = 1.  The table doubles: the digits of g^(i+m) are those of g^i
    times P^m, so each round multiplies the m rows known so far by P^m, in
    row chunks of digits of the dtype of GF(p), and squares P^m.  Every sum
    has at most K terms below p^2, below 2^31 for Q <= 8192, so int32
    products are exact.
    """
    K = len(P)
    P = P.astype(np.int32)
    D = np.zeros((Q, K), dtype=code_dtype(p))  # row i: the digits of g^i
    D[0, 0] = 1
    step = chunk_rows(K)
    m = 1
    while m < Q:
        for lo in range(m, min(2 * m, Q), step):
            hi = min(lo + step, 2 * m, Q)
            D[lo:hi] = (D[lo - m:hi - m] @ P) % p
        m *= 2
        if m < Q:
            P = (P @ P) % p
    codes = pack(D, p)
    exp = codes[:Q - 1]
    log = np.full(Q, -1, dtype=np.int64)
    log[exp] = np.arange(Q - 1)
    if codes[Q - 1] != 1 or log[0] != -1 or np.count_nonzero(log >= 0) != Q - 1:
        return None
    return exp, log


@cache
def _find_generator(p, modulus):
    """The multiplication matrix over GF(p) of a generator of GF(p^e) modulo
    ``modulus`` (a tuple): that of the first element code whose matrix
    sum_j a_j X^j, X the companion matrix, has order q - 1.  It is x only
    when the modulus is primitive."""
    e = len(modulus) - 1
    q = p ** e
    X = _companion(modulus, p)
    Xpow = [np.eye(e, dtype=np.int64)]  # row j: X^j, flattened
    for _ in range(e - 1):
        Xpow.append(Xpow[-1] @ X % p)
    Xpow = np.reshape(Xpow, (e, e * e))
    for a in range(1, q):
        M = (digits(a, p, e) @ Xpow % p).reshape(e, e)
        if _has_order(M, q - 1, p):
            return M
    raise DomainError(f"modulus {list(modulus)} does not define a field")


def _log_mul_table(exp, log):
    """The multiplication table of a field of order Q = len(log) from its
    log/exp tables, in row chunks of bounded bytes."""
    Q = len(log)
    table = np.zeros((Q, Q), dtype=code_dtype(Q))
    exp2 = np.concatenate([exp, exp]).astype(table.dtype)  # no reduction mod Q - 1
    logs = log[1:]
    step = chunk_rows(Q)
    for lo in range(0, Q - 1, step):
        table[1 + lo:1 + lo + step, 1:] = exp2[logs[lo:lo + step, None] + logs]
    return table


def _digit_sum_tables(p, e, dtype):
    """The (q, q) addition and (q,) negation tables of the codes of GF(p^e),
    odd p, as codes of ``dtype``: digit-wise sums and negatives mod p.

    T1, the GF(p) table whose row i holds i + j mod p, is a copy of a (p, p)
    window with unit strides over ``arange(2p - 1) % p`` in ``dtype``.  The
    tables of the low j digits, of order m = p^j, extend to j + 1 digits by
    T1 on the top digit: a code is low + m high, so the sum of two codes is
    T[a_low, b_low] + m T1[a_high, b_high].  That is one broadcast sum per
    digit, of ``(m T1)[:, None, :, None]`` and ``T[None, :, None, :]``,
    written straight into the next table viewed as (p, m, p, m).  Every sum
    is below the order, so it fits ``dtype``, and no int64 array is made.
    """
    r = (np.arange(2 * p - 1) % p).astype(dtype)
    T1 = np.ndarray((p, p), dtype, r, strides=(r.itemsize, r.itemsize)).copy()
    N1 = r[p:0:-1].copy()  # -j mod p
    T, N, m = T1, N1, p
    for _ in range(e - 1):
        M = m * p
        nxt = np.empty((M, M), dtype=dtype)
        np.add((m * T1)[:, None, :, None], T[None, :, None, :], out=nxt.reshape(p, m, p, m))
        T = nxt
        N = (m * N1[:, None] + N).reshape(M)
        m = M
    return T, N


def _matmul_blas(A, B, p, dtype):
    """``(A @ B) % p`` for codes of GF(p) on BLAS, as codes of ``dtype``.

    Every sum is an integer below n·(p-1)² for inner dimension n, so the
    float product is exact and reduces exactly in float32 while that stays
    below ``matrix._F32_SUM`` = 2**22 - 1 (n up to about 4·10⁶ over GF(2),
    10⁶ over GF(3)), and in float64 while it stays below 2**51 (n up to
    about 3·10⁷ for p below the 8192 table cap).  Rows go in chunks of
    bounded bytes; a product of one chunk, as every desk-size operand is, is
    formed whole, with no output buffer.
    """
    n = A.shape[-1]
    if n * (p - 1) ** 2 >= _EXACT_SUM:
        raise TooLarge(f"inner dimension {n} too large for exact GF({p}) products")
    fdtype = blas_dtype(n, p)
    Bf = B.astype(fdtype)
    step = chunk_rows(max(n, B.shape[-1]), Bf.itemsize)
    if A.ndim != 2 or len(A) <= step:
        return reduce_mod(A.astype(fdtype) @ Bf, p).astype(dtype)
    out = np.empty(A.shape[:1] + B.shape[1:], dtype=dtype)
    for lo in range(0, A.shape[0], step):
        out[lo:lo + step] = reduce_mod(A[lo:lo + step].astype(fdtype) @ Bf, p)
    return out


class Field:
    """The finite field GF(p^e) with dense multiplication tables.

    Parameters
    ----------
    p : int
        Prime characteristic.
    e : int
        Extension degree over the prime field (default 1).
    modulus : sequence of int, optional
        Monic irreducible polynomial of degree ``e`` over GF(p), coefficients
        low-degree first (length ``e + 1``); its root need not be primitive.
        When omitted, the lexicographically first irreducible polynomial is
        used, which makes element codes reproducible across runs.

    The element-code dtype ``dtype`` follows from the order (see the module
    docstring).  :meth:`Extension.as_field` builds the GF(Q) field of an
    extension, whose ``ext_key`` is that extension's value key
    ``(base, k, f)`` (``None`` here) and whose ``modulus`` is ``None``.  It
    keeps the key and the extension's repr, not the extension, which holds
    the field: no reference cycle keeps a dropped extension's tables alive.
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if e < 1:
            raise DomainError("degree must be >= 1")
        if p >= 2 and _exceeds_cap(p, e):  # before the primality test, a trial division
            raise TooLarge(f"field order p^e exceeds table cap {_TABLE_CAP}")
        if not _is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if modulus is None:
            modulus = [0, 1] if e == 1 else _find_irreducible(p, e)
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree e")
        if e > 1 and not _is_irreducible(modulus, p):
            raise DomainError(f"modulus {modulus} is reducible over GF({p})")
        built = _power_table(_find_generator(p, tuple(modulus)), p, p ** e)
        if built is None:
            raise DomainError(f"modulus {modulus} does not define a field")
        self._setup(p, e, tuple(modulus), None, *built)

    @classmethod
    def _of_extension(cls, ext):
        field = cls.__new__(cls)
        field._setup(ext.base.p, ext.base.e * ext.k, None, ext._key(), ext.exp, ext.log)
        field._ext_repr = repr(ext)
        return field

    # -- construction -------------------------------------------------------

    def _setup(self, p, e, modulus, ext_key, exp, log):
        """The multiplication and inverse tables from the power table
        ``exp``/``log`` of a generator, the negation and addition tables
        composed digit by digit; in characteristic 2 addition is XOR and has
        no table.

        ``kind`` is the arithmetic kind, which picks the product here and the
        elimination kernel in :mod:`matrix`: ``"gf2"``, ``"prime"`` (codes
        are integers mod p) or ``"tables"`` (GF(p^e) with e > 1, and every
        field of an extension)."""
        self.p, self.e, self.q = p, e, p ** e
        self.modulus, self.ext_key = modulus, ext_key
        self.kind = "tables" if e > 1 or ext_key is not None else "gf2" if p == 2 else "prime"
        self.dtype = code_dtype(self.q)
        self.mul_table = _log_mul_table(exp, log)
        q = self.q
        self.inv_table = np.zeros(q, dtype=self.dtype)
        self.inv_table[1:] = exp[-log[1:] % (q - 1)]
        if p == 2:
            return
        self.add_table, self.neg_table = _digit_sum_tables(p, e, self.dtype)

    # -- element arithmetic -------------------------------------------------

    def _xor(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(a) ^ int(b)
        return np.bitwise_xor(a, b, dtype=self.dtype)

    def add(self, a, b):
        if self.p == 2:
            return self._xor(a, b)
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.add_table[a, b])
        return self.add_table[np.asarray(a), np.asarray(b)]

    def neg(self, a):
        if self.p == 2:  # -a = a
            return int(a) if isinstance(a, _SCALAR_TYPES) else np.array(a, dtype=self.dtype)
        if isinstance(a, _SCALAR_TYPES):
            return int(self.neg_table[a])
        return self.neg_table[np.asarray(a)]

    def sub(self, a, b):
        if self.p == 2:
            return self._xor(a, b)
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.add_table[a, self.neg_table[b]])
        return self.add_table[np.asarray(a), self.neg_table[np.asarray(b)]]

    def mul(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.mul_table[a, b])
        return self.mul_table[np.asarray(a), np.asarray(b)]

    def inv(self, a):
        a = int(a)
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return int(self.inv_table[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        a = int(a)
        n = int(n)
        if n < 0:
            a, n = self.inv(a), -n
        result, base = 1, a
        while n:
            if n & 1:
                result = int(self.mul_table[result, base])
            base = int(self.mul_table[base, base])
            n >>= 1
        return result

    # -- vectorized linear algebra kernels ----------------------------------

    def add_reduce(self, arr, axis):
        """Sum of field elements along an axis.

        For odd p with e > 1 the terms are added pairwise through the add
        table, in the field dtype: each round adds the second half of the
        axis onto the first, so a sum of n terms takes about log2(n) gathers.
        """
        arr = np.asarray(arr)
        if self.p == 2:
            return np.bitwise_xor.reduce(arr, axis=axis).astype(self.dtype, copy=False)
        if self.e == 1:
            return (arr.sum(axis=axis, dtype=np.int64) % self.p).astype(self.dtype)
        terms = np.moveaxis(arr, axis, 0)
        if not len(terms):
            return np.zeros(terms.shape[1:], dtype=self.dtype)
        while len(terms) > 1:
            h = len(terms) // 2
            head = self.add_table[terms[:h], terms[h:2 * h]]
            if len(terms) % 2:
                head[0] = self.add_table[head[0], terms[-1]]
            terms = head
        return terms[0].astype(self.dtype)[()]  # a numpy scalar for a 1-D sum

    def matmul(self, A, B):
        """Matrix product over the field; ``A`` is (m, n) or (n,), ``B`` is
        (n, r).

        Integer codes of any dtype go in; codes of :attr:`dtype` come out.
        Prime fields multiply on BLAS (:func:`_matmul_blas`).  Table fields
        (``kind == "tables"``) read each row of ``A`` by its nonzero entries
        only: the entries and the rows of ``B`` they pick, padded with zeros
        to the longest row, meet in one gather from the flattened
        multiplication table, at ``a * q + b``, and one :meth:`add_reduce`
        over the pad axis, so a row costs its weight, not n.  Both operands
        are checked to be codes (DomainError), since a flat index would not
        catch a code past q.  Rows go in slices whose (rows, pad, r) index,
        8 bytes an entry against the codes' 1 or 2, takes an eighth of the
        ``matrix.chunk_rows`` budget, 64 KB: a slice that size fits in heap
        the decoder already holds, so a Monte-Carlo run's peak memory does
        not grow.
        """
        A = np.asarray(A)
        B = np.asarray(B)
        if self.kind == "tables":
            A = check_codes(A, self.q, "matrix entries")
            B = check_codes(B, self.q, "matrix entries")
        return self._matmul(A, B)

    def _matmul(self, A, B):
        """:meth:`matmul` of integer arrays without the check of their codes:
        for operands the library built and checked once, such as the kept
        tables of a GRS code, or has just checked."""
        if A.shape[-1] != B.shape[0]:
            raise DomainError(f"shape mismatch {A.shape} @ {B.shape}")
        if self.kind != "tables":
            return _matmul_blas(A, B, self.p, self.dtype)
        if A.ndim == 1:
            return self._matmul(A[None], B)[0]
        rows, cols = np.nonzero(A)  # row by row
        slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # place in its row
        pick = np.zeros((len(A), slot.max(initial=-1) + 1), dtype=np.intp)
        offset = np.zeros(pick.shape, dtype=np.intp)  # a * q: the table row of a
        pick[rows, slot] = cols
        offset[rows, slot] = A[rows, cols].astype(np.intp) * self.q
        flat = self.mul_table.reshape(-1)
        out = np.empty((len(A), B.shape[1]), dtype=self.dtype)
        step = chunk_rows(pick.shape[1] * B.shape[1], 64)
        for lo in range(0, len(A), step):
            index = B[pick[lo:lo + step]].astype(np.intp)
            index += offset[lo:lo + step, :, None]
            out[lo:lo + step] = self.add_reduce(flat[index], axis=1)
        return out

    def dot(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return int(self.add_reduce(self.mul_table[u, v], axis=-1))

    # -- misc ----------------------------------------------------------------

    def _key(self):
        if self.ext_key is not None:
            return ("view", self.ext_key)
        return (self.p, self.e, self.modulus)

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.ext_key is not None:
            return f"Field(GF({self.q}) of {self._ext_repr})"
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


# ----------------------------------------------------------------------------
# extensions GF(q^k) over a base field
# ----------------------------------------------------------------------------

def _companion_digits(base: Field, k: int, f):
    """The K x K matrix over GF(p), K = k e, of multiplication by the root
    alpha of ``f`` on the base-p digit rows of extension codes.

    Row l + e j holds the digits of p^l q^j alpha: for j < k - 1 the unit row
    l + e (j + 1), for j = k - 1 those of p^l alpha^k, which are the GF(q)
    coordinates p^l (-f_i), i < k, each as e base-p digits.
    """
    p, e = base.p, base.e
    top = base.mul(p ** np.arange(e)[:, None], base.neg(np.asarray(f[:k]))[None, :])
    return _shift_matrix(digits(top, p, e).reshape(e, k * e))


def _build_exp_table(base: Field, k: int, f):
    """The power table (exp, log) of the root alpha of ``f``, or None if
    ``f`` is not primitive (or not even the modulus of a field); the table
    is the proof of primitivity (see :func:`_power_table`)."""
    return _power_table(_companion_digits(base, k, f), base.p, base.q ** k)


_PRIMITIVE_CACHE: dict = {}


def _find_primitive_poly(base: Field, k: int):
    """The first monic primitive polynomial of degree k over ``base``, kept
    by the base's value key, not the field, whose tables it would hold."""
    key = (base.p, base.e, base.modulus, k)
    if key not in _PRIMITIVE_CACHE:
        c = _first_polynomial(base.q, k, lambda c: _has_order(
            _companion_digits(base, k, c + [1]), base.q ** k - 1, base.p))
        if c is None:
            raise NotPrimitive(f"no primitive polynomial of degree {k} over GF({base.q})")
        _PRIMITIVE_CACHE[key] = c + [1]
    return _PRIMITIVE_CACHE[key]


class Extension:
    """The extension GF(q^k) of a base field GF(q), with a primitive root.

    The element ``alpha`` (the class of x modulo ``f``) generates the
    multiplicative group; elements are coded as base-q digit vectors in the
    power basis ``(1, alpha, ..., alpha^(k-1))``.

    Parameters
    ----------
    base : Field
        The base field GF(q).
    k : int
        Extension degree.
    f : sequence, optional
        Monic primitive polynomial of degree ``k`` over GF(q), coefficients
        low-degree first.  Primitivity is verified at construction (the power
        table doubles as the proof).  When omitted, the lexicographically
        first primitive polynomial is used.
    """

    def __init__(self, base: Field, k: int, f=None):
        if k < 1:
            raise DomainError("extension degree must be >= 1")
        if _exceeds_cap(base.q, k):
            raise TooLarge(f"extension order q^k exceeds table cap {_TABLE_CAP}")
        if f is None:
            f = _find_primitive_poly(base, k)
        f = [int(c) for c in f]
        if len(f) != k + 1 or f[-1] != 1:
            raise DomainError("f must be monic of degree k")
        if any(c < 0 or c >= base.q for c in f):
            raise DomainError("f coefficients must be base-field codes")
        built = _build_exp_table(base, k, f)
        if built is None:
            raise NotPrimitive(f"f={f} is not primitive over GF({base.q})")
        self.base = base
        self.k = k
        self.f = tuple(f)
        self.q = base.q
        self.Q = base.q ** k
        self.exp, self.log = built
        self.alpha = int(self.exp[1 % (self.Q - 1)]) if self.Q > 2 else 1

    # -- coordinates ---------------------------------------------------------

    @cached_property
    def coord_table(self):
        """The (Q, k) table of :meth:`coords` for every element code."""
        return digits(np.arange(self.Q), self.q, self.k)

    def coords(self, a):
        """Base-q coordinate vector(s) in the power basis (length k)."""
        return np.take(self.coord_table, check_codes(a, self.Q, "element codes"), axis=0)

    def _code(self, a):
        """The one element code ``a`` as an int, checked as :meth:`coords`
        checks its codes."""
        if isinstance(a, _SCALAR_TYPES) and 0 <= a < self.Q:
            return int(a)
        return int(check_codes(a, self.Q, "element codes"))

    def from_coords(self, coords):
        """The element codes of power-basis coordinate vectors (last axis),
        each coordinate a code of the base field."""
        return pack(check_codes(coords, self.q, "coordinates"), self.q)

    def from_dual_coords(self, coords):
        """The element codes of coordinate vectors (last axis) in the dual of
        the power basis: the inverse of :meth:`phi_dual`."""
        return self.from_dual_table[self.from_coords(coords)]

    # -- traces, dual coordinates, multiplication matrices -------------------

    @cached_property
    def trace_table(self):
        """``Tr a = a + a^q + ... + a^(q^(k-1))`` for every element code:
        column 0 of :attr:`dual_table`, as Tr(a alpha^0) = Tr a."""
        return self.dual_table[:, 0].copy()

    def trace(self, a):
        """Field trace down to GF(q), returned as a base-field code."""
        if isinstance(a, _SCALAR_TYPES):
            return int(self.trace_table[self._code(a)])
        return self.trace_table[check_codes(a, self.Q, "element codes")]

    def alpha_pow(self, j):
        if self.Q == 2:
            return 1
        return int(self.exp[j % (self.Q - 1)])

    def power_basis(self):
        return [self.alpha_pow(j) for j in range(self.k)]

    def companion_matrix(self):
        """k x k base-field matrix of multiplication by alpha in the power basis."""
        return _shift_matrix(self.base.neg(np.array([self.f[:-1]]))).T

    def phi(self, a):
        """k x k base-field matrix of multiplication by ``a`` in the power basis.

        Column j holds the coordinates of ``a * alpha^j``; consequently
        phi(alpha) equals the companion matrix and phi is a ring homomorphism.
        """
        basis = np.asarray(self.power_basis(), dtype=np.int64)
        return self.coords(self.as_field().mul(self._code(a), basis)).T

    @cached_property
    def dual_table(self):
        """The (Q, k) int64 table of :meth:`phi_dual` for every element code,
        from the trace form (module docstring): ``coord_table . T`` over
        GF(q), T[i, j] = Tr(alpha^(i+j)) from the 2k - 1 traces of alpha^m,
        each the sum of its k conjugates alpha^(m q^i)."""
        k, m = self.k, np.arange(2 * self.k - 1)
        conj = self.exp[m[:, None] * self.q ** m[:k] % (self.Q - 1)]
        traces = self.as_field().add_reduce(conj, axis=1)
        if (traces >= self.q).any():
            raise AssertionError("trace left the base field")  # pragma: no cover
        T = traces[m[:k, None] + m[:k]]
        return self.base.matmul(self.coord_table, T).astype(np.int64)

    @cached_property
    def from_dual_table(self):
        """The element code of each packed row of :attr:`dual_table`: a
        permutation of the codes, as the trace pairing is nondegenerate."""
        table = np.empty(self.Q, dtype=np.int64)
        table[pack(self.dual_table, self.q)] = np.arange(self.Q)
        return table

    def phi_dual(self, a):
        """Coordinates of ``a`` in the dual of the power basis.

        These are the traces ``(Tr a, Tr alpha*a, ..., Tr alpha^(k-1)*a)``.
        """
        return self.dual_table[self._code(a)].copy()

    # -- dual and self-dual bases -------------------------------------------

    def dual_basis(self, basis=None):
        """The trace-dual basis of ``basis`` (default: the power basis).

        Returns ``(b'_j)`` with ``Tr(b_i b'_j) = delta_ij``.  The row
        ``dual_table[x] . coords(basis)^T`` is ``(Tr(x b_i))_i``; packed base q
        it maps the codes one-to-one exactly when ``basis`` is a basis, and
        b'_j is the code sent to q^j.  For the power basis that map is the
        packed ``dual_table``, whose inverse ``from_dual_table`` is kept.
        """
        if basis is None:
            return [int(b) for b in self.from_dual_table[self.q ** np.arange(self.k)]]
        if len(basis) != self.k:
            raise NotABasis("need exactly k elements")
        B = self.coords(np.asarray(basis, dtype=np.int64))
        image = pack(self.base.matmul(self.dual_table, B.T), self.q)
        preimage = np.full(self.Q, -1, dtype=np.int64)
        preimage[image] = np.arange(self.Q)
        if (preimage < 0).any():
            raise NotABasis("trace pairing is degenerate: not a basis")
        return [int(preimage[self.q ** j]) for j in range(self.k)]

    def self_dual_basis(self):
        """A basis whose trace Gram matrix is the identity, or None when none
        exists, which is exactly when q is odd and k even: one Gram-Schmidt
        pass on the trace form over a mask of all Q codes (module docstring,
        "Self-dual bases").  The elements come in code order, each the least
        candidate scaled by the least square root of its form value."""
        fQ, tr, k = self.as_field(), self.trace_table, self.k
        values, least = np.unique(self.base.mul_table.diagonal(), return_index=True)
        root = np.zeros(self.q, dtype=np.int64)  # least square root; 0 off the squares
        root[values] = least
        mask = root[tr[fQ.mul_table.diagonal()]] > 0  # B(x, x) a nonzero square
        basis, w = [], 1  # w = 1 + sum of the basis, in characteristic 2
        for step in range(k):
            if self.base.p == 2 and step < k - 1:
                mask[fQ.mul_table[w, :self.q]] = False
            hits = np.flatnonzero(mask)
            if not hits.size:  # odd q: the last step, at a non-square discriminant
                return None
            v = int(hits[0])
            basis.append(fQ.div(v, int(root[tr[fQ.mul(v, v)]])))
            mask &= tr[fQ.mul_table[basis[-1]]] == 0
            w ^= basis[-1]
        b = np.asarray(basis)
        if not np.array_equal(tr[fQ.mul(b[:, None], b)], np.eye(k, dtype=np.int64)):
            raise AssertionError("self-dual basis is not orthonormal")  # pragma: no cover
        return basis

    # -- bridge to the generic matrix layer ----------------------------------

    @cached_property
    def _field(self):
        return Field._of_extension(self)

    def as_field(self):
        """GF(Q) as a :class:`Field`, built on first call and kept.

        Its element codes are this extension's codes and its multiplication
        table comes from the log/exp tables, so matrices over the extension
        go through the same kernels as matrices over a base field; it
        eliminates through the dense tables (``kind == "tables"``).
        """
        return self._field

    def _key(self):
        return (self.base, self.k, self.f)

    def __eq__(self, other):
        return isinstance(other, Extension) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Extension(GF({self.q})^{self.k}, f={list(self.f)})"

