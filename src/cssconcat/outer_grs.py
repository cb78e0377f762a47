"""Generalized Reed-Solomon codes over an extension field GF(Q).

A GRS code of dimension K evaluates polynomials of degree < K at N distinct
points, scaling column j by a nonzero multiplier v_j.  The dual is again GRS
on the same points with the classical dual multipliers u_j.  Its generator
``G`` and canonical parity check ``H``, the dual's Vandermonde-style
generator, are built from a, v and u on every read.  :meth:`GrsCode.syndrome`
(e.H^T, also the re-encode check below) and :meth:`GrsCode.dual_syndrome`
(w.G^T) keep the transpose built on their first call.  Every kept table, the
two transposes and the Chien table, is checked to hold codes once, when it
is built; the products read it unchecked and check only the caller's rows.

The decoder, :meth:`GrsCode.bd_decode_batch`, takes a batch of syndrome rows:
Berlekamp-Massey (Massey, 1969) in lockstep over the rows for all N - K steps,
``np.where`` masks where rows differ.  The rows whose locator length L
exceeds t fail; the rest are worked at the width w, the largest L kept.  A
locator has degree <= L, and as it generates S as an LFSR of length L for
all N - K steps, (Lambda S)_n = 0 for L <= n < N - K, so the evaluator
Omega = Lambda S mod z^w has degree < L <= w: the locators are cut to w + 1
coefficients, Omega and Lambda' have w.  The Chien search is one
:meth:`Field.matmul` product of the locators against the first w + 1 rows
of a cached power table of the inverse points, which reads only their
nonzero coefficients; its roots are taken as found, one flat list of (row,
point) pairs, and Forney's formula (Forney, 1965) runs at each of them,
Omega and Lambda' as one product against the table's column a_j^-i, i < w,
at the root's point, the formal derivative's coefficient i times i mod p.
Every row is re-verified (locator degree <= t, that many distinct roots,
a re-encoded syndrome equal to the input); a failing row gets a zero error
row and an int8 reason code into :data:`MESSAGES`, not a silent miscorrection.
:meth:`GrsCode.bd_decode` is the one-row call and raises DecodeFailure.

CSS certificate.  :func:`certify_css_pair` decides dual(D2) <= D1 for GRS
codes of one length over one extension.  With Hout_i = D_i.H it checks

  (O) Hout1.Hout2^T = 0 and (C) D_i.G.Hout_i^T = 0 on both codes.

D_i.G and Hout_i are K_i and N - K_i Vandermonde rows a^i (0^0 = 1) of
distinct points scaled by nonzero multipliers, so they have full rank (R);
by (C) Hout_i spans dual(D_i), and (O) puts dual(D2) in D1.  So (D, D)
decides dual(D) <= D, and (D', D.dual()), whose Hout_2 is D.G, D <= D'.

Exact path.  When D1.points equals D2.points, the points a are distinct
codes, and both codes' ``_log_diff`` were computed from a, the certificate
reads no G or H and does O(N^2) table work:

  - entry (i, l) of Hout1.Hout2^T is sum_j u1_j u2_j a_j^(i+l), u the
    dual multipliers: (O) is the 2N - K1 - K2 - 1 power sums for i + l =
    0..2N-K1-K2-2, which vanish (none where a code has K_i = N, as its
    Hout_i has no rows).  A nonzero one is a nonzero entry of
    Hout1.Hout2^T: NotOrthogonal, with no product over GF(Q);
  - entry (i, l) of G.H^T is sum_j v_j u_j a_j^(i+l).  The N - 1 sums for
    i + l = 0..N-2 vanish exactly when v_j u_j prod_{m != j} (a_j - a_m)
    is a constant, as the weights 1/prod_{m != j} (a_j - a_m) span the
    kernel of the (N - 1)-row Vandermonde matrix (Lagrange interpolation;
    the dual of a GRS code, MacWilliams and Sloane, ch. 10 section 8).  So
    (C) is the O(N) check that this is a nonzero constant, which also makes
    v and u nonzero as (R) needs, the products read from their logs
    ``_log_diff``.

Other pairs.  A pair the exact path neither proves nor rejects, on other
points, failing (C) there, or with fields changed after construction, is
judged by (O) and (C) themselves, two products over GF(Q) at most N wide:
NotOrthogonal if Hout1.Hout2^T != 0, then RankDeficient if D_i.G.Hout_i^T
!= 0 on either code.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import (
    BadDimension,
    BadField,
    DecodeFailure,
    DimensionConflict,
    DomainError,
    DuplicatePoint,
    NotOrthogonal,
    RankDeficient,
    ZeroMultiplier,
)
from .codes import LinearCode
from .galois import Extension
from .matrix import as_codes, as_int64, check_codes, chunk_rows

# The outcome of decoding one syndrome row: ``reason`` codes index this tuple.
MESSAGES = (
    "decoded",
    "nonzero syndrome but zero correction radius",
    "locator degree exceeds radius",
    "repeated locator root",
    "locator roots do not match its degree",
    "re-encoded syndrome mismatch",
)
_ZERO_RADIUS, _DEGREE, _REPEATED_ROOT, _ROOT_COUNT, _MISMATCH = range(1, len(MESSAGES))


def _log_difference_products(ext, points):
    """Discrete logs of ``prod_{m != j} (a_j - a_m)`` for each point ``a_j``.

    The points must be distinct.  Built from the N x N difference matrix in
    bounded row chunks.
    """
    a = np.asarray(points, dtype=np.int64)
    N = a.size
    out = np.empty(N, dtype=np.int64)
    step = chunk_rows(N)
    for lo in range(0, N, step):
        logs = ext.log[ext.as_field().sub(a[lo:lo + step, None], a[None, :])]
        rows = np.arange(logs.shape[0])
        logs[rows, lo + rows] = 0  # the m == j factor is left out
        out[lo:lo + step] = logs.sum(axis=1) % (ext.Q - 1)
    return out


def _distinct_codes(ext, a):
    """Whether the 1-D integer array ``a`` holds distinct codes of the
    field, checked by a Q-length boolean scatter, not a sort."""
    if not ((a >= 0) & (a < ext.Q)).all():
        return False
    seen = np.zeros(ext.Q, dtype=bool)
    seen[a] = True
    return np.count_nonzero(seen) == a.size


def _checked_points(ext, points):
    """The points as a 1-D int64 array by :func:`matrix.as_int64` (a
    non-integer raises DomainError), checked distinct (DuplicatePoint), then
    codes of the field by :func:`matrix.check_codes` (DomainError).

    Codes of the field are checked distinct by :func:`_distinct_codes`;
    otherwise, with a point out of range, which raises anyway, by a set.
    """
    a = as_int64(points, ext.Q, "points").reshape(-1)
    if not _distinct_codes(ext, a):
        if len(set(a.tolist())) != a.size:
            raise DuplicatePoint("evaluation points must be distinct")
        check_codes(a, ext.Q, "points")  # distinct, so a point is out of range
    return a


def _berlekamp_massey(f, S, t):
    """Berlekamp-Massey in lockstep over the rows of ``S`` (rows, R), all R
    steps for every row: the connection polynomials (rows, t + 1), lowest
    coefficient first, and their lengths L.

    The length never falls and bounds the degree, so a row that ends with
    L <= t never had a coefficient past t; coefficients past t are dropped,
    which changes only rows that end with L > t, and those fail.  For the
    same reason each step reads the locators only up to the largest L of
    the batch: the discrepancy over min(n, t, max L) + 1 coefficients, and
    the update over min(t, max L) + 1 columns, max L taken after the step's
    length change.
    """
    rows, R = S.shape
    lam = np.zeros((rows, t + 1), dtype=f.dtype)
    lam[:, 0] = 1
    B = np.zeros_like(lam)  # z^m times the locator before the last length change
    B[:, 1] = 1
    b = np.ones(rows, dtype=f.dtype)  # the discrepancy at that change
    L = np.zeros(rows, dtype=np.int64)
    top = 0  # the largest L
    for n in range(R):
        w = min(n, t, top) + 1
        d = f.add_reduce(f.mul(lam[:, :w], S[:, n::-1][:, :w]), axis=1)
        grow = (d != 0) & (2 * L <= n)
        L = np.where(grow, n + 1 - L, L)
        top = int(L.max(initial=0))
        shifted = np.where(grow[:, None], lam[:, :-1], B[:, :-1])
        w = min(t, top) + 1
        lam[:, :w] = f.sub(lam[:, :w], f.mul(f.mul(d, f.inv_table[b])[:, None], B[:, :w]))
        B = np.zeros_like(B)
        B[:, 1:] = shifted
        b = np.where(grow, d, b)
    return lam, L


def _scaled_powers(ext, scale, points, rows, start=0):
    """The (rows, N) matrix ``s_j * a_j^i``, i = start .. start + rows - 1,
    for the column scales ``scale``, in the dtype of GF(Q), gathered from
    the power table chunk_rows(N) rows at a time through int64 logs."""
    log_s, log_a = ext.log[scale], ext.log[points]
    out = np.empty((rows, points.size), dtype=ext.as_field().dtype)
    exp = ext.exp.astype(out.dtype)
    step = chunk_rows(points.size)
    for lo in range(0, rows, step):
        e = np.arange(start + lo, start + min(rows, lo + step), dtype=np.int64)[:, None] * log_a
        e += log_s
        e %= ext.Q - 1
        np.take(exp, e, out=out[lo:lo + step], mode="clip")  # in range: no buffer
    out[int(start == 0):, points == 0] = 0  # 0^0 = 1, every higher power is 0
    out[:, scale == 0] = 0
    return out


class GrsCode:
    """A generalized Reed-Solomon code (see module docstring).

    :func:`nested_grs_pair` builds the CSS-compatible pairs.  A code is fixed
    after construction: its kept H^T, G^T and decoder tables follow its
    fields only as they were at their first read, and ``_log_diff`` is
    trusted only for the points it was computed from.
    """

    def __init__(self, ext: Extension, points, multipliers, K: int):
        points = _checked_points(ext, points)
        multipliers = as_int64(multipliers, ext.Q, "multipliers").reshape(-1)
        if multipliers.size != points.size:
            raise DomainError("need one multiplier per point")
        check_codes(multipliers, ext.Q, "multipliers")
        if not multipliers.all():
            raise ZeroMultiplier("column multipliers must be nonzero")
        self._build(ext, points, multipliers, K, _log_difference_products(ext, points))

    @classmethod
    def _on_points(cls, ext, points, multipliers, K, log_diff):
        """A code on checked points with nonzero multipliers, given the logs
        ``log_diff`` of the points' difference products."""
        code = cls.__new__(cls)
        code._build(ext, points, multipliers, K, log_diff)
        return code

    def _build(self, ext, points, multipliers, K, log_diff):
        N = points.size
        if not 1 <= K <= N:
            raise BadDimension(f"dimension K={K} out of range [1, {N}]")
        self.ext = ext
        self.N = N
        self.K = K
        self.points = points
        self.multipliers = multipliers
        self._log_diff = log_diff
        self._log_diff_points = points  # the points _log_diff was computed from
        # the dual multipliers u_j = v_j^{-1} * prod_{m != j} (a_j - a_m)^{-1}
        self.dual_multipliers = ext.exp[(-ext.log[multipliers] - log_diff) % (ext.Q - 1)]

    @property
    def t(self):
        """Bounded-distance correction radius."""
        return (self.N - self.K) // 2

    @property
    def G(self):
        """The generator, row i = (v_j * a_j^i) for i < K, built on every read."""
        return _scaled_powers(self.ext, self.multipliers, self.points, self.K)

    @property
    def H(self):
        """The canonical parity check, row i = (u_j * a_j^i) for i < N - K."""
        return _scaled_powers(self.ext, self.dual_multipliers, self.points, self.N - self.K)

    def as_linear_code(self) -> LinearCode:
        """The code as a LinearCode; ``G`` is full rank by construction
        (distinct points, nonzero multipliers).  Its ``H`` is the null space
        of ``G``, not the canonical parity check."""
        return LinearCode._full_rank(self.ext.as_field(), self.G)

    def dual(self) -> "GrsCode":
        if self.K == self.N:
            raise BadDimension("dual of the full space has dimension 0")
        return GrsCode._on_points(self.ext, self.points, self.dual_multipliers,
                                  self.N - self.K, self._log_diff)

    def with_dimension(self, K: int) -> "GrsCode":
        """The GRS code of dimension ``K`` on the same points and multipliers,
        such as D' of a tower dual(D) <= D <= D'.  Like :meth:`dual`, it takes
        this code's ``_log_diff`` and computes no difference products."""
        return GrsCode._on_points(self.ext, self.points, self.multipliers, K, self._log_diff)

    _Ht = cached_property(lambda self: self._checked(self.H.T))
    _Gt = cached_property(lambda self: self._checked(self.G.T))

    def _checked(self, table):
        return check_codes(np.ascontiguousarray(table), self.ext.Q, "GRS table entries")

    def _product(self, x, table):
        """x.table over GF(Q) for caller rows ``x``, whose codes are checked,
        and a kept table, whose codes are not."""
        return self.ext.as_field()._matmul(check_codes(x, self.ext.Q, "matrix entries"), table)

    def syndrome(self, e):
        """Syndromes e.H^T of error vectors ``e`` (rows, or one vector)."""
        return self._product(e, self._Ht)

    def dual_syndrome(self, w):
        """w.G^T, the syndromes of vectors ``w`` against the dual code."""
        return self._product(w, self._Gt)

    @cached_property
    def _chien(self):
        """The decoder's tables, built on the first decode and kept: the power
        table ``P[i, j] = a_j^-i`` of the inverse points for i <= t, the
        largest degree of a locator that can pass, and the Forney factors
        ``c_j = -a_j / u_j``."""
        f = self.ext.as_field()
        P = _scaled_powers(self.ext, np.ones(self.N, dtype=np.int64),
                           f.inv_table[self.points], self.t + 1)
        return self._checked(P), f.neg(f.mul(self.points, f.inv_table[self.dual_multipliers]))

    def bd_decode_batch(self, S):
        """Errors-only bounded-distance decoding of syndrome rows ``S`` (rows,
        N - K) against the canonical parity check, Chien and Forney on one table.

        Returns ``(E, ok, reason)``: row i of ``E`` is the unique error vector
        of weight <= t with syndrome ``S[i]`` when ``ok[i]``, and all zero
        otherwise; ``reason[i]`` (int8) indexes :data:`MESSAGES`, 0 for a
        decoded row.
        """
        f = self.ext.as_field()
        R = self.N - self.K
        S = np.asarray(S)
        if S.ndim != 2 or S.shape[1] != R:
            raise DomainError(f"syndromes must be rows of length {R}")
        S = as_codes(f, S, "syndrome entries")
        E = np.zeros((len(S), self.N), dtype=f.dtype)
        reason = np.zeros(len(S), dtype=np.int8)
        rows = np.flatnonzero(S.any(axis=1))
        t = self.t
        if t == 0:
            reason[rows] = _ZERO_RADIUS
            return E, reason == 0, reason
        if rows.size and (self.points == 0).any():
            raise DomainError("decoding requires nonzero evaluation points")
        lam, L = _berlekamp_massey(f, S[rows], t)
        reason[rows[L > t]] = _DEGREE
        keep = L <= t
        rows, L = rows[keep], L[keep]
        w = int(L.max(initial=0))  # deg Lambda <= L <= w
        lam, S = lam[keep, :w + 1], S[rows]
        # Omega = Lambda * S mod z^w: deg Omega < L <= w
        omega = np.zeros((rows.size, w), dtype=f.dtype)
        for i in range(w):
            omega[:, i:] = f.add(omega[:, i:], f.mul(lam[:, i:i + 1], S[:, :w - i]))
        # coefficient i - 1 of Lambda' is i * lambda_i, i read mod p
        dlam = f.mul(lam[:, 1:], np.arange(1, w + 1) % f.p)
        P, c = self._chien
        roots = f._matmul(lam, P[:w + 1]) == 0  # lam holds codes, formed from checked S
        r, j = np.nonzero(roots)  # a root of kept row r at point j
        X = P[:w, j].T  # the powers a_j^-i, i < w, that Chien read at each root
        num, den = (f.add_reduce(f.mul(poly[r], X), axis=1) for poly in (omega, dlam))
        # Forney: e_j = -a_j Omega(1/a_j) / (u_j Lambda'(1/a_j)) at each root
        E[rows[r], j] = f.mul(f.mul(num, c[j]), f.inv_table[den])
        why = np.where(roots.sum(axis=1) != L, _ROOT_COUNT, 0).astype(np.int8)
        why[r[den == 0]] = _REPEATED_ROOT
        why[(why == 0) & (f._matmul(E[rows], self._Ht) != S).any(axis=1)] = _MISMATCH
        E[rows[why != 0]] = 0
        reason[rows] = why
        return E, reason == 0, reason

    def bd_decode(self, syndrome):
        """:meth:`bd_decode_batch` of one syndrome: the error vector of weight
        <= t, or DecodeFailure with the row's :data:`MESSAGES` entry."""
        E, ok, reason = self.bd_decode_batch(np.reshape(syndrome, (1, -1)))
        if not ok[0]:
            raise DecodeFailure(MESSAGES[reason[0]])
        return E[0]

    def __repr__(self):
        return f"GrsCode[{self.N},{self.K}] over GF({self.ext.Q})"


def certify_css_pair(D1: GrsCode, D2: GrsCode):
    """Certify dual(D2) <= D1 for GRS codes of one length over one
    extension (module docstring): the exact path, and only when it neither
    proves nor rejects the pair, (O) and (C) by their products over GF(Q).
    Accepts, or raises NotOrthogonal when Hout1.Hout2^T != 0 and
    RankDeficient when a code's G.H^T != 0."""
    ext, a = D1.ext, D1.points
    fQ, N = ext.as_field(), a.size
    # codes built on one point array (nested_grs_pair) share it: no comparison
    if (all(x is a or np.array_equal(x, a) for x in (D2.points, D1._log_diff_points,
                                                      D2._log_diff_points))
            and _distinct_codes(ext, a)):
        # (O): the power sums of u1 u2 that Hout1.Hout2^T holds vanish, summed
        # a slice of degrees at a time so that no (degrees, N) matrix is formed
        s = fQ.mul(D1.dual_multipliers, D2.dual_multipliers)
        degrees, step = 2 * N - D1.K - D2.K - 1, chunk_rows(N)
        if max(D1.K, D2.K) < N and any(
                fQ.add_reduce(_scaled_powers(ext, s, a, min(step, degrees - lo), lo), axis=1).any()
                for lo in range(0, degrees, step)):
            raise NotOrthogonal("outer pair violates the CSS containment")
        # (C): v_j u_j prod_{m != j} (a_j - a_m) is a nonzero constant
        c = [fQ.mul(fQ.mul(code.multipliers, code.dual_multipliers), ext.exp[code._log_diff])
             for code in (D1, D2)]
        if all(x[0] and (x == x[0]).all() for x in c):
            return
    if fQ.matmul(D1.H, D2.H.T).any():
        raise NotOrthogonal("outer pair violates the CSS containment")
    if any(fQ.matmul(code.G, code.H.T).any() for code in (D1, D2)):
        raise RankDeficient("a GRS generator is not orthogonal to its parity check")


def default_points(ext: Extension, N: int):
    """The first N powers of the primitive root: (1, alpha, alpha^2, ...)."""
    if N < 1:
        raise BadDimension(f"default points need N >= 1, not {N}")
    if N > ext.Q - 1:
        raise DomainError(f"default points need N <= Q-1 = {ext.Q - 1}")
    return ext.exp[np.arange(N)].tolist()


def nested_grs_pair(ext: Extension, N: int, K1: int, K2: int):
    """A CSS-compatible nested pair (D1, D2) of GRS codes on shared points.

    D1 is the plain RS code of dimension K1; D2 is the dual of the RS code of
    dimension N-K2 (again GRS on the same points), so dual(D2) is the RS code
    of dimension N-K2, contained in D1 whenever K1 + K2 >= N.  D2 is built
    directly, as the GRS code of dimension K2 with D1's dual multipliers.
    """
    if K1 + K2 < N:
        raise DimensionConflict("need K1 + K2 >= N for a nested pair")
    D1 = GrsCode(ext, default_points(ext, N), np.ones(N, dtype=np.int64), K1)
    # dual multipliers depend on the points and multipliers, not on K
    v2 = D1.multipliers if K2 == N else D1.dual_multipliers
    return D1, GrsCode._on_points(ext, D1.points, v2, K2, D1._log_diff)


def self_dual_multiplier_grs(ext: Extension, points, K: int) -> GrsCode:
    """A GRS code whose dual shares its multipliers (characteristic 2 only).

    With v_j the square root of prod_{m != j}(a_j - a_m)^{-1}, the dual of
    GRS_K(a, v) is GRS_{N-K}(a, v); dimension nesting then gives towers
    dual(D) <= D <= D' on the same points whenever N - K <= K.
    """
    if ext.base.p != 2:
        raise BadField("square-root multipliers need characteristic 2")
    points = _checked_points(ext, points)
    log_diff = _log_difference_products(ext, points)
    # in characteristic 2, s^(Q/2) is the square root of s
    logs = (-log_diff * (ext.Q // 2)) % (ext.Q - 1)
    return GrsCode._on_points(ext, points, ext.exp[logs], K, log_diff)
