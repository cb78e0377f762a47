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
by digit from the p x p table of GF(p), one broadcast sum per digit with no
chunked digit temporaries (:func:`_digit_sum_tables`); negation likewise.
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
tested on the same matrices.  An :class:`Extension` keeps the structure: the
primitive root, coordinates, trace, dual coordinates, bases and
multiplication matrices.  One cap, ``_TABLE_CAP`` = 8192, bounds the order of
every field and extension, checked when it is built.

Codes split into digits and pack back through :func:`matrix.digits` and
:func:`matrix.pack`, the one coding.  An extension inverts its trace-dual
coordinates once: ``from_dual_table`` inverts the packed ``dual_table``.

Every field has one element-code dtype, ``dtype``, worked out from its order:
``np.int8`` when q <= 128 and ``np.int16`` otherwise (no order passes the
8192 cap).  Its tables hold codes in that dtype, so table gathers return it,
and so do matrix products.  It is signed so that the difference of two codes
cannot wrap.  Arithmetic other than a gather (products, sums of products)
widens first.

All operations accept plain ints or numpy integer arrays and are pure; field
objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

from .errors import DivisionByZero, DomainError, NotABasis, NotPrimitive, TooLarge
from .matrix import MatGF, blas_dtype, check_codes, chunk_rows, digits, pack, reduce_mod

_TABLE_CAP = 1 << 13  # largest field or extension order: dense Q x Q tables
_SDB_TRIES = 64  # self_dual_basis: search rounds, the first exhaustive
_SDB_ENUM_CAP = 1 << 16  # self_dual_basis: candidates per basis element and round

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


_IRREDUCIBLE_CACHE: dict = {}


def _find_irreducible(p, e):
    key = (p, e)
    if key in _IRREDUCIBLE_CACHE:
        return _IRREDUCIBLE_CACHE[key]
    for code in range(p ** e):
        coeffs = [int(d) for d in digits(code, p, e)] + [1]
        if _is_irreducible(coeffs, p):
            _IRREDUCIBLE_CACHE[key] = coeffs
            return coeffs
    raise DomainError(f"no irreducible polynomial of degree {e} over GF({p})")


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
        P = (P @ P) % p
        m *= 2
    codes = pack(D, p)
    exp = codes[:Q - 1]
    log = np.full(Q, -1, dtype=np.int64)
    log[exp] = np.arange(Q - 1)
    if codes[Q - 1] != 1 or log[0] != -1 or np.count_nonzero(log >= 0) != Q - 1:
        return None
    return exp, log


_GENERATOR_CACHE: dict = {}


def _find_generator(p, modulus):
    """The multiplication matrix over GF(p) of a generator of GF(p^e) modulo
    ``modulus``: that of the first element code whose matrix sum_j a_j X^j,
    X the companion matrix, has order q - 1.  It is x only when the modulus
    is primitive."""
    key = (p, tuple(modulus))
    if key in _GENERATOR_CACHE:
        return _GENERATOR_CACHE[key]
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
            _GENERATOR_CACHE[key] = M
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

    The tables of the low j digits, of order m = p^j, extend to j + 1 digits
    by the GF(p) tables of the top digit: a code is low + m high, so the sum
    of two codes is T[a_low, b_low] + m T1[a_high, b_high], a broadcast sum
    whose reshape is the next table.  Every entry is a code below q, so the
    sums fit ``dtype``; the GF(p) sums, below 2p <= 2^14, are formed in int16.
    """
    a = np.arange(p, dtype=np.int16)
    T1 = np.add.outer(a, a)
    np.remainder(T1, p, out=T1)
    T1 = T1.astype(dtype, copy=False)
    N1 = (-a % p).astype(dtype)
    T, N, m = T1, N1, p
    for _ in range(e - 1):
        T = (m * T1[:, None, :, None] + T[None, :, None, :]).reshape(m * p, m * p)
        N = (m * N1[:, None] + N[None, :]).reshape(m * p)
        m *= p
    return T, N


def _matmul_blas(A, B, p, dtype):
    """``(A @ B) % p`` for codes of GF(p) on BLAS, as codes of ``dtype``.

    Every sum is an integer below n·(p-1)² for inner dimension n, so the
    float product is exact and reduces exactly in float32 while that stays
    below ``matrix._F32_SUM`` = 2**22 - 1 (n up to about 4·10⁶ over GF(2),
    10⁶ over GF(3)), and in float64 while it stays below 2**51 (n up to
    about 3·10⁷ for p below the 8192 table cap).  Rows go in chunks of
    bounded bytes.
    """
    n = A.shape[-1]
    if n * (p - 1) ** 2 >= _EXACT_SUM:
        raise TooLarge(f"inner dimension {n} too large for exact GF({p}) products")
    fdtype = blas_dtype(n, p)
    Bf = B.astype(fdtype)
    if A.ndim != 2:
        return reduce_mod(A.astype(fdtype) @ Bf, p).astype(dtype)
    out = np.empty(A.shape[:1] + B.shape[1:], dtype=dtype)
    step = chunk_rows(max(n, B.shape[-1]), Bf.itemsize)
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
    extension, whose ``ext`` is that extension (``None`` here) and whose
    ``modulus`` is ``None``.
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
        built = _power_table(_find_generator(p, modulus), p, p ** e)
        if built is None:
            raise DomainError(f"modulus {modulus} does not define a field")
        self._setup(p, e, tuple(modulus), None, *built)

    @classmethod
    def _of_extension(cls, ext):
        field = cls.__new__(cls)
        field._setup(ext.base.p, ext.base.e * ext.k, None, ext, ext.exp, ext.log)
        return field

    @property
    def kind(self):
        """Arithmetic kind, which picks the elimination kernel in :mod:`matrix`:
        ``"gf2"``, ``"prime"`` (codes are integers mod p) or ``"tables"``
        (GF(p^e) with e > 1, and every field of an extension)."""
        if self.e > 1 or self.ext is not None:
            return "tables"
        return "gf2" if self.p == 2 else "prime"

    # -- construction -------------------------------------------------------

    def _setup(self, p, e, modulus, ext, exp, log):
        """The multiplication and inverse tables from the power table
        ``exp``/``log`` of a generator, the negation and addition tables
        composed digit by digit; in characteristic 2 addition is XOR and has
        no table."""
        self.p, self.e, self.q = p, e, p ** e
        self.modulus, self.ext = modulus, ext
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

    def is_square(self, a):
        a = int(a)
        if self.p == 2 or a == 0:
            return True
        return self.pow(a, (self.q - 1) // 2) == 1

    def sqrt(self, a):
        """A square root of ``a``, or None if ``a`` is a non-residue."""
        a = int(a)
        if self.p == 2:
            return self.pow(a, self.q // 2)
        for b in range(self.q):
            if self.mul_table[b, b] == a:
                return b
        return None

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
        """Matrix product over the field; ``A`` is (m, n), ``B`` is (n, r).

        Integer codes of any dtype go in; codes of :attr:`dtype` come out.
        """
        A = np.asarray(A)
        B = np.asarray(B)
        if A.shape[-1] != B.shape[0]:
            raise DomainError(f"shape mismatch {A.shape} @ {B.shape}")
        if self.e == 1:
            return _matmul_blas(A, B, self.p, self.dtype)
        single = A.ndim == 1
        if single:
            A = A[None, :]
        m, n = A.shape
        r = B.shape[1]
        out = np.empty((m, r), dtype=self.dtype)
        chunk = max(1, (1 << 22) // max(1, n * r))
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            prod = self.mul_table[A[lo:hi, :, None], B[None, :, :]]
            out[lo:hi] = self.add_reduce(prod, axis=1)
        return out[0] if single else out

    def dot(self, u, v):
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return int(self.add_reduce(self.mul_table[u, v], axis=-1))

    # -- misc ----------------------------------------------------------------

    def _key(self):
        if self.ext is not None:
            return ("view", self.ext)
        return (self.p, self.e, self.modulus)

    def __eq__(self, other):
        return isinstance(other, Field) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        if self.ext is not None:
            return f"Field(GF({self.q}) of {self.ext!r})"
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
    key = (base.p, base.e, base.modulus, k)
    if key in _PRIMITIVE_CACHE:
        return _PRIMITIVE_CACHE[key]
    q = base.q
    for code in range(1, q ** k):
        coeffs = [int(c) for c in digits(code, q, k)] + [1]
        if coeffs[0] == 0:
            continue
        if _has_order(_companion_digits(base, k, coeffs), q ** k - 1, base.p):
            _PRIMITIVE_CACHE[key] = coeffs
            return coeffs
    raise NotPrimitive(f"no primitive polynomial of degree {k} over GF({q})")


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

    def from_coords(self, coords):
        """The element codes of power-basis coordinate vectors (last axis)."""
        return pack(np.asarray(coords, dtype=np.int64) % self.q, self.q)

    def from_dual_coords(self, coords):
        """The element codes of coordinate vectors (last axis) in the dual of
        the power basis: the inverse of :meth:`phi_dual`."""
        return self.from_dual_table[self.from_coords(coords)]

    # -- traces, dual coordinates, multiplication matrices -------------------

    @cached_property
    def trace_table(self):
        """``Tr a = a + a^q + ... + a^(q^(k-1))`` for every element code."""
        Q = self.Q
        conj = self.exp[(self.log[1:, None] * self.q ** np.arange(self.k)) % (Q - 1)]
        acc = np.zeros(Q, dtype=np.int64)
        acc[1:] = self.as_field().add_reduce(conj, axis=1)
        if np.any(acc >= self.q):
            raise AssertionError("trace left the base field")  # pragma: no cover
        return acc

    def trace(self, a):
        """Field trace down to GF(q), returned as a base-field code."""
        if isinstance(a, _SCALAR_TYPES):
            return int(self.trace_table[a])
        return self.trace_table[np.asarray(a)]

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
        return self.coords(self.as_field().mul(int(a), basis)).T

    @cached_property
    def dual_table(self):
        """The (Q, k) table of :meth:`phi_dual` for every element code."""
        basis = np.asarray(self.power_basis(), dtype=np.int64)
        return self.trace(self.as_field().mul(np.arange(self.Q)[:, None], basis))

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
        return self.dual_table[int(a)].copy()

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
        """Search for a basis whose trace Gram matrix is the identity.

        Returns a list of k element codes, or None if the search fails (which
        is a legitimate outcome for some odd-characteristic cases; for even q
        a self-dual basis always exists and the search is expected to find
        one at desk sizes); ``_SDB_TRIES`` rounds, ``_SDB_ENUM_CAP`` tries each.
        """
        base, k, q, fQ = self.base, self.k, self.q, self.as_field()
        rng = np.random.default_rng(20240823)
        for attempt in range(_SDB_TRIES):
            sel: list[int] = []
            while len(sel) < k:
                if sel:
                    comp = MatGF(base, self.dual_table[sel]).null_space().a
                else:
                    comp = np.eye(k, dtype=np.int64)
                if comp.shape[0] == 0:
                    break
                found = None
                combos = itertools.product(range(q), repeat=comp.shape[0])
                if attempt > 0:
                    combos = (tuple(rng.integers(0, q, comp.shape[0]))
                              for _ in range(min(_SDB_ENUM_CAP, 4096)))
                for count, cs in enumerate(combos):
                    if count >= _SDB_ENUM_CAP:
                        break
                    if not any(cs):
                        continue
                    coords = base.add_reduce(
                        base.mul(np.asarray(cs, dtype=np.int64)[:, None], comp), axis=0)
                    v = int(self.from_coords(coords))
                    t = self.trace(fQ.mul(v, v))
                    if t == 0 or not base.is_square(t):
                        continue
                    c = base.sqrt(t)
                    if c is None or c == 0:
                        continue
                    found = fQ.div(v, c)
                    break
                if found is None:
                    break
                sel.append(found)
            if len(sel) == k:
                b = np.asarray(sel, dtype=np.int64)
                gram = self.trace(fQ.mul(b[:, None], b))
                if np.array_equal(gram, np.eye(k, dtype=np.int64)):
                    return sel
        return None

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

    def __eq__(self, other):
        return (isinstance(other, Extension) and self.base == other.base
                and self.k == other.k and self.f == other.f)

    def __hash__(self):
        return hash((self.base, self.k, self.f))

    def __repr__(self):
        return f"Extension(GF({self.q})^{self.k}, f={list(self.f)})"

