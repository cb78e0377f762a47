"""Finite-field arithmetic: GF(p^e) base fields and GF(q^k) extensions.

Elements of GF(p^e) are represented as integers in ``[0, q)`` whose base-p
digits (little-endian) are the coefficients of the residue polynomial modulo
the irreducible field polynomial.  Elements of an extension GF(q^k) are
integers in ``[0, Q)`` whose base-q digits are the coordinates in the power
basis ``(1, alpha, ..., alpha^(k-1))`` of a root ``alpha`` of a primitive
polynomial ``f`` over GF(q).

With this packing the two layers compose: the base-p digits of an extension
code are exactly the ``e*k`` GF(p)-coordinates of the element, so addition is
always a digit-wise sum mod p regardless of the layer.

Every field has one element-code dtype, ``dtype``, worked out from its order:
``np.int8`` when q <= 128 and ``np.int16`` otherwise (the table cap is 4096
and the GF(Q) view of an extension goes up to 8192).  Its tables hold codes
in that dtype, so table gathers return it, and so do matrix products.  It is
signed so that the difference of two codes cannot wrap.  Arithmetic other
than a gather (products, sums of products) widens first.

All operations accept plain ints or numpy integer arrays and are pure; field
objects are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DivisionByZero, DomainError, NotABasis, NotPrimitive, Singular, TooLarge
from .matrix import MatGF, blas_dtype, chunk_rows, reduce_mod

_EXT_ORDER_CAP = 1 << 20  # largest supported extension-field size
_TABLE_CAP = 1 << 12  # largest base field with dense q x q tables

_SCALAR_TYPES = (int, np.integer)


# ----------------------------------------------------------------------------
# polynomial helpers over the prime field GF(p)
# ----------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            factor = (c * inv_lead) % p
            for j, mj in enumerate(m):
                a[i - dm + j] = (a[i - dm + j] - factor * mj) % p
    return _poly_trim([x % p for x in a[:dm]])


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_powmod(a, n, m, p):
    result = [1]
    base = _poly_mod(a, m, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        n >>= 1
    return result


def _gcd_poly(a, b, p):
    a = _poly_trim([x % p for x in a])
    b = _poly_trim([x % p for x in b])
    while b:
        r = _poly_mod(a, b, p) if len(a) >= len(b) else a
        a, b = b, _poly_trim(r)
    return a


def _sub_x(poly, p):
    """poly(x) - x, coefficients normalized mod p."""
    out = list(poly) + [0] * max(0, 2 - len(poly))
    out[1] = (out[1] - 1) % p
    return _poly_trim([c % p for c in out])


def _is_irreducible(coeffs, p):
    """Rabin irreducibility test for a monic polynomial over GF(p)."""
    e = len(coeffs) - 1
    if e <= 0:
        return False
    if e == 1:
        return True
    x = [0, 1]
    # x^(p^e) == x (mod f)
    if _sub_x(_poly_powmod(x, p ** e, coeffs, p), p):
        return False
    # gcd(x^(p^(e/r)) - x, f) == 1 for each prime r | e
    ee = e
    primes = set()
    r = 2
    while r * r <= ee:
        if ee % r == 0:
            primes.add(r)
            while ee % r == 0:
                ee //= r
        r += 1
    if ee > 1:
        primes.add(ee)
    for r in primes:
        diff = _sub_x(_poly_powmod(x, p ** (e // r), coeffs, p), p)
        if not diff:
            return False
        if len(_gcd_poly(coeffs, diff, p)) - 1 > 0:
            return False
    return True


def _digits(codes, base, ndig):
    codes = np.asarray(codes, dtype=np.int64)
    pows = base ** np.arange(ndig, dtype=np.int64)
    return (codes[..., None] // pows) % base


def _pack(digits, base):
    digits = np.asarray(digits, dtype=np.int64)
    pows = base ** np.arange(digits.shape[-1], dtype=np.int64)
    return (digits * pows).sum(axis=-1)


_IRREDUCIBLE_CACHE: dict = {}


def _find_irreducible(p, e):
    key = (p, e)
    if key in _IRREDUCIBLE_CACHE:
        return _IRREDUCIBLE_CACHE[key]
    for code in range(p ** e):
        coeffs = [int(d) for d in _digits(code, p, e)] + [1]
        if _is_irreducible(coeffs, p):
            _IRREDUCIBLE_CACHE[key] = coeffs
            return coeffs
    raise DomainError(f"no irreducible polynomial of degree {e} over GF({p})")


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


_EXACT_SUM = 1 << 51  # float64 sums below this reduce exactly (matrix.reduce_mod)


def code_dtype(q):
    """The element-code dtype of a field of order ``q`` (see the module
    docstring)."""
    return np.dtype(np.int8 if q <= 128 else np.int16)


def _matmul_blas(A, B, p, dtype):
    """``(A @ B) % p`` for codes of GF(p) on BLAS, as codes of ``dtype``.

    Every sum is an integer below n·(p-1)² for inner dimension n, so the
    float product is exact and reduces exactly in float32 while that stays
    below ``matrix._F32_SUM`` = 2**22 - 1 (n up to about 4·10⁶ over GF(2),
    10⁶ over GF(3)), and in float64 while it stays below 2**51 (n up to
    about 1.3·10⁸ for p below the 4096 table cap).  Rows go in chunks of
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
        low-degree first (length ``e + 1``).  When omitted, the
        lexicographically first irreducible polynomial is used, which makes
        element codes reproducible across runs.

    The element-code dtype ``dtype`` follows from the order (see the module
    docstring).
    """

    def __init__(self, p: int, e: int = 1, modulus=None):
        if not _is_prime(p):
            raise DomainError(f"characteristic {p} is not prime")
        if e < 1:
            raise DomainError("degree must be >= 1")
        if p ** e > _TABLE_CAP:
            raise TooLarge(f"field order {p**e} exceeds table cap {_TABLE_CAP}")
        if modulus is None:
            modulus = [0, 1] if e == 1 else _find_irreducible(p, e)
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != e + 1 or modulus[-1] != 1:
            raise DomainError("modulus must be monic of degree e")
        if e > 1 and not _is_irreducible(modulus, p):
            raise DomainError(f"modulus {modulus} is reducible over GF({p})")
        self.p = p
        self.e = e
        self.q = p ** e
        self.dtype = code_dtype(self.q)
        self.modulus = tuple(modulus)
        self._build_tables()

    @property
    def kind(self):
        """Arithmetic kind, which picks the elimination kernel in :mod:`matrix`:
        ``"gf2"``, ``"prime"`` (codes are integers mod p) or ``"tables"``."""
        if self.e > 1:
            return "tables"
        return "gf2" if self.p == 2 else "prime"

    # -- construction -------------------------------------------------------

    def _build_tables(self):
        # built in int64, kept as codes of self.dtype
        p, e, q = self.p, self.e, self.q
        ab = np.arange(q, dtype=np.int64)
        if e == 1:
            self.mul_table = ((ab[:, None] * ab[None, :]) % p).astype(self.dtype)
        else:
            D = _digits(ab, p, e)  # (q, e)
            red = (-np.asarray(self.modulus[:e], dtype=np.int64)) % p
            table = np.empty((q, q), dtype=self.dtype)
            for a in range(q):
                ax = np.empty((e, e), dtype=np.int64)
                ax[0] = D[a]
                for j in range(1, e):
                    prev = ax[j - 1]
                    c = prev[e - 1]
                    row = np.empty(e, dtype=np.int64)
                    row[1:] = prev[:-1]
                    row[0] = 0
                    ax[j] = (row + c * red) % p
                table[a] = _pack((D @ ax) % p, p)
            self.mul_table = table
        inv = np.zeros(self.q, dtype=self.dtype)
        rows, cols = np.nonzero(self.mul_table == 1)
        inv[rows] = cols
        if np.count_nonzero(inv) != self.q - 1:
            raise DomainError("modulus does not define a field (reducible)")
        self.inv_table = inv
        if e == 1:
            self.add_table = ((ab[:, None] + ab[None, :]) % p).astype(self.dtype)
            self.neg_table = ((-ab) % p).astype(self.dtype)
        else:
            D = _digits(ab, p, e)
            self.add_table = _pack((D[:, None, :] + D[None, :, :]) % p, p).astype(self.dtype)
            self.neg_table = _pack((-D) % p, p).astype(self.dtype)

    # -- element arithmetic -------------------------------------------------

    @staticmethod
    def _ret(value, *operands):
        if all(np.isscalar(x) or isinstance(x, (int, np.integer)) for x in operands):
            return int(value)
        return value

    def add(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.add_table[a, b])
        return self._ret(self.add_table[np.asarray(a), np.asarray(b)], a, b)

    def neg(self, a):
        if isinstance(a, _SCALAR_TYPES):
            return int(self.neg_table[a])
        return self._ret(self.neg_table[np.asarray(a)], a)

    def sub(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.add_table[a, self.neg_table[b]])
        return self._ret(self.add_table[np.asarray(a), self.neg_table[np.asarray(b)]],
                         a, b)

    def mul(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            return int(self.mul_table[a, b])
        return self._ret(self.mul_table[np.asarray(a), np.asarray(b)], a, b)

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

    def elements(self):
        return range(self.q)

    # -- vectorized linear algebra kernels ----------------------------------

    def add_reduce(self, arr, axis):
        """Sum of field elements along an axis."""
        arr = np.asarray(arr)
        if self.e == 1:
            return (arr.sum(axis=axis, dtype=np.int64) % self.p).astype(self.dtype)
        axis = axis % arr.ndim  # digits add a trailing axis; normalize first
        d = _digits(arr, self.p, self.e)
        return _pack(d.sum(axis=axis) % self.p, self.p).astype(self.dtype)

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

    def spec_line(self):
        return " ".join(str(x) for x in (self.p, self.e, *self.modulus))

    def __eq__(self, other):
        return (isinstance(other, Field) and self.p == other.p
                and self.e == other.e and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e}, modulus={list(self.modulus)})"


# ----------------------------------------------------------------------------
# extensions GF(q^k) over a base field
# ----------------------------------------------------------------------------

def _build_exp_table(base: Field, k: int, f):
    """Try to build the power table of the root of ``f``.

    Returns (exp, log) on success or None if ``f`` is not primitive (or not
    even the modulus of a field).
    """
    q = base.q
    Q = q ** k
    red = [base.neg(c) for c in f[:k]]  # base-q digits of alpha^k
    d = [0] * k
    d[0] = 1
    exp = np.empty(Q - 1, dtype=np.int64)
    log = np.full(Q, -1, dtype=np.int64)
    qpows = [q ** j for j in range(k)]
    for i in range(Q - 1):
        code = sum(dj * pj for dj, pj in zip(d, qpows))
        if code == 0 or log[code] != -1:
            return None
        exp[i] = code
        log[code] = i
        c = d[k - 1]
        nd = [base.mul(c, red[0])]
        for j in range(1, k):
            nd.append(base.add(d[j - 1], base.mul(c, red[j])))
        d = nd
    # the orbit must close back to 1
    code = sum(dj * pj for dj, pj in zip(d, qpows))
    if code != 1:
        return None
    return exp, log


_PRIMITIVE_CACHE: dict = {}


def _find_primitive_poly(base: Field, k: int):
    key = (base.p, base.e, base.modulus, k)
    if key in _PRIMITIVE_CACHE:
        return _PRIMITIVE_CACHE[key]
    q = base.q
    for code in range(1, q ** k):
        coeffs = [int(c) for c in _digits(code, q, k)] + [1]
        if coeffs[0] == 0:
            continue
        if _build_exp_table(base, k, coeffs) is not None:
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
        if base.q ** k > _EXT_ORDER_CAP:
            raise TooLarge(f"extension order {base.q**k} exceeds cap {_EXT_ORDER_CAP}")
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
        self._trace_table = None
        self._coord_table = None
        self._dual_table = None
        self._dual_basis = None
        self._as_field = None
        if self.Q <= _TABLE_CAP:
            D = _digits(np.arange(self.Q, dtype=np.int64), base.p, base.e * k)
            self._add_table = _pack((D[:, None, :] + D[None, :, :]) % base.p, base.p)
            self._neg_table = _pack((-D) % base.p, base.p)
        else:
            self._add_table = None
            self._neg_table = None

    # -- coordinates ---------------------------------------------------------

    @property
    def coord_table(self):
        """The (Q, k) table of :meth:`coords` for every element code."""
        if self._coord_table is None:
            self._coord_table = _digits(np.arange(self.Q, dtype=np.int64), self.q, self.k)
        return self._coord_table

    def coords(self, a):
        """Base-q coordinate vector(s) in the power basis (length k)."""
        return np.take(self.coord_table, a, axis=0)

    def from_coords(self, coords):
        return _pack(np.asarray(coords, dtype=np.int64) % self.q, self.q)

    def embed(self, c):
        """Embed a base-field code as a constant-coordinate extension code."""
        c = int(c)
        if not 0 <= c < self.q:
            raise DomainError("not a base field code")
        return c

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _ret(value, *operands):
        if all(np.isscalar(x) or isinstance(x, (int, np.integer)) for x in operands):
            return int(value)
        return value

    def add(self, a, b):
        if (self._add_table is not None and isinstance(a, _SCALAR_TYPES)
                and isinstance(b, _SCALAR_TYPES)):
            return int(self._add_table[a, b])
        p = self.base.p
        nd = self.base.e * self.k
        da = _digits(a, p, nd)
        db = _digits(b, p, nd)
        return self._ret(_pack((da + db) % p, p), a, b)

    def neg(self, a):
        if self._neg_table is not None and isinstance(a, _SCALAR_TYPES):
            return int(self._neg_table[a])
        p = self.base.p
        nd = self.base.e * self.k
        return self._ret(_pack((-_digits(a, p, nd)) % p, p), a)

    def sub(self, a, b):
        if (self._add_table is not None and isinstance(a, _SCALAR_TYPES)
                and isinstance(b, _SCALAR_TYPES)):
            return int(self._add_table[a, self._neg_table[b]])
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if isinstance(a, _SCALAR_TYPES) and isinstance(b, _SCALAR_TYPES):
            if a == 0 or b == 0:
                return 0
            return int(self.exp[(int(self.log[a]) + int(self.log[b]))
                                % (self.Q - 1)])
        a_arr = np.asarray(a)
        b_arr = np.asarray(b)
        la = self.log[a_arr]
        lb = self.log[b_arr]
        out = self.exp[(la + lb) % (self.Q - 1)]
        out = np.where((a_arr == 0) | (b_arr == 0), 0, out)
        return self._ret(out, a, b)

    def inv(self, a):
        a = int(a)
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        return int(self.exp[(-self.log[a]) % (self.Q - 1)])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        a = int(a)
        n = int(n)
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("zero to a negative power")
            return 0
        return int(self.exp[(self.log[a] * n) % (self.Q - 1)])

    def elements(self):
        return range(self.Q)

    # -- traces, dual coordinates, multiplication matrices -------------------

    @property
    def trace_table(self):
        if self._trace_table is None:
            q, k, Q = self.q, self.k, self.Q
            acc = np.zeros(Q, dtype=np.int64)
            codes = np.arange(1, Q, dtype=np.int64)
            logs = self.log[codes]
            for i in range(k):
                conj = self.exp[(logs * q ** i) % (Q - 1)]
                acc[1:] = _pack(
                    (_digits(acc[1:], self.base.p, self.base.e * k)
                     + _digits(conj, self.base.p, self.base.e * k)) % self.base.p,
                    self.base.p)
            if np.any(acc >= q):
                raise AssertionError("trace left the base field")  # pragma: no cover
            self._trace_table = acc
        return self._trace_table

    def trace(self, a):
        """Field trace down to GF(q), returned as a base-field code."""
        return self._ret(self.trace_table[np.asarray(a)], a)

    def alpha_pow(self, j):
        if self.Q == 2:
            return 1
        return int(self.exp[j % (self.Q - 1)])

    def power_basis(self):
        return [self.alpha_pow(j) for j in range(self.k)]

    def companion_matrix(self):
        """k x k base-field matrix of multiplication by alpha in the power basis."""
        k = self.k
        T = np.zeros((k, k), dtype=np.int64)
        for i in range(1, k):
            T[i, i - 1] = 1
        for i in range(k):
            T[i, k - 1] = self.base.neg(self.f[i])
        return T

    def phi(self, a):
        """k x k base-field matrix of multiplication by ``a`` in the power basis.

        Column j holds the coordinates of ``a * alpha^j``; consequently
        phi(alpha) equals the companion matrix and phi is a ring homomorphism.
        """
        k = self.k
        M = np.empty((k, k), dtype=np.int64)
        x = int(a)
        for j in range(k):
            M[:, j] = self.coords(x)
            x = self.mul(x, self.alpha)
        return M

    @property
    def dual_table(self):
        """The (Q, k) table of :meth:`phi_dual` for every element code."""
        if self._dual_table is None:
            codes = np.arange(self.Q, dtype=np.int64)
            self._dual_table = np.stack(
                [self.trace(self.mul(codes, self.alpha_pow(j))) for j in range(self.k)],
                axis=1)
        return self._dual_table

    def phi_dual(self, a):
        """Coordinates of ``a`` in the dual of the power basis.

        These are the traces ``(Tr a, Tr alpha*a, ..., Tr alpha^(k-1)*a)``.
        """
        return self.dual_table[int(a)].copy()

    # -- dual and self-dual bases -------------------------------------------

    def _gram(self, basis):
        k = len(basis)
        G = np.empty((k, k), dtype=np.int64)
        for i in range(k):
            for j in range(k):
                G[i, j] = self.trace(self.mul(basis[i], basis[j]))
        return G

    def dual_basis(self, basis=None):
        """The trace-dual basis of ``basis`` (default: the power basis).

        Returns elements ``(b'_j)`` with ``Tr(b_i b'_j) = delta_ij``, computed
        by inverting the Gram matrix of trace pairings over the base field.
        The dual of the power basis is computed once and kept.
        """
        if basis is None:
            if self._dual_basis is None:
                self._dual_basis = self.dual_basis(self.power_basis())
            return list(self._dual_basis)
        if len(basis) != self.k:
            raise NotABasis("need exactly k elements")
        try:
            Ginv = MatGF(self.base, self._gram(basis)).invert().a
        except Singular:
            raise NotABasis("Gram matrix singular: not a basis") from None
        dual = []
        for j in range(self.k):
            acc = 0
            for m in range(self.k):
                acc = self.add(acc, self.mul(self.embed(int(Ginv[m, j])), basis[m]))
            dual.append(acc)
        return dual

    def self_dual_basis(self, max_tries: int = 64, enum_cap: int = 1 << 16):
        """Search for a basis whose trace Gram matrix is the identity.

        Returns a list of k element codes, or None if the search fails (which
        is a legitimate outcome for some odd-characteristic cases; for even q
        a self-dual basis always exists and the search is expected to find
        one at desk sizes).
        """
        base, k, q = self.base, self.k, self.q
        rng = np.random.default_rng(20240823)
        for attempt in range(max_tries):
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
                              for _ in range(min(enum_cap, 4096)))
                for count, cs in enumerate(combos):
                    if count >= enum_cap:
                        break
                    if not any(cs):
                        continue
                    coords = base.add_reduce(
                        base.mul(np.asarray(cs, dtype=np.int64)[:, None], comp), axis=0)
                    v = int(self.from_coords(coords))
                    t = self.trace(self.mul(v, v))
                    if t == 0 or not base.is_square(t):
                        continue
                    c = base.sqrt(t)
                    if c is None or c == 0:
                        continue
                    found = self.div(v, self.embed(c))
                    break
                if found is None:
                    break
                sel.append(found)
            if len(sel) == k:
                gram = self._gram(sel)
                if np.array_equal(gram, np.eye(k, dtype=np.int64)):
                    return sel
        return None

    # -- bridge to the generic matrix layer ----------------------------------

    def as_field(self):
        """A :class:`Field`-compatible view of GF(Q) for matrix algebra.

        The element codes agree with this extension's codes, so matrices over
        the extension can be manipulated with the same dense kernels used for
        base fields.
        """
        if self._as_field is None:
            self._as_field = _ExtFieldView(self)
        return self._as_field

    def spec_line(self):
        return " ".join(str(x) for x in (self.k, *self.f))

    def __eq__(self, other):
        return (isinstance(other, Extension) and self.base == other.base
                and self.k == other.k and self.f == other.f)

    def __hash__(self):
        return hash((self.base, self.k, self.f))

    def __repr__(self):
        return f"Extension(GF({self.q})^{self.k}, f={list(self.f)})"


class _ExtFieldView:
    """Adapter exposing an Extension through the Field kernel interface."""

    def __init__(self, ext: Extension):
        self.ext = ext
        self.p = ext.base.p
        self.e = ext.base.e * ext.k
        self.q = ext.Q
        self.dtype = code_dtype(ext.Q)
        Q = ext.Q
        if Q * Q > (1 << 26):
            raise TooLarge(f"dense table for GF({Q}) too big")
        logs = ext.log
        mt = ext.exp[(logs[:, None] + logs[None, :]) % (Q - 1)].astype(self.dtype)
        mt[0, :] = 0
        mt[:, 0] = 0
        self.mul_table = mt
        inv = np.zeros(Q, dtype=self.dtype)
        inv[ext.exp] = ext.exp[(-logs[ext.exp]) % (Q - 1)]
        self.inv_table = inv
        # element codes are base-p digit strings, so addition is digit-wise
        D = _digits(np.arange(Q, dtype=np.int64), self.p, self.e)
        add = _pack((D[:, None, :] + D[None, :, :]) % self.p, self.p)
        self.add_table = add.astype(self.dtype)
        self.neg_table = _pack((-D) % self.p, self.p).astype(self.dtype)

    kind = "tables"  # elimination goes through the dense tables

    # Reuse the generic kernels from Field via delegation.
    _ret = staticmethod(Field._ret)
    add = Field.add
    neg = Field.neg
    sub = Field.sub
    mul = Field.mul
    inv = Field.inv
    div = Field.div
    pow = Field.pow
    is_square = Field.is_square
    sqrt = Field.sqrt
    elements = Field.elements
    add_reduce = Field.add_reduce
    matmul = Field.matmul
    dot = Field.dot

    def __eq__(self, other):
        return isinstance(other, _ExtFieldView) and self.ext == other.ext

    def __hash__(self):
        return hash(("view", self.ext))

    def __repr__(self):
        return f"GF({self.q}) view of {self.ext!r}"
