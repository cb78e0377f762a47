"""Generalized Reed-Solomon codes over an extension field GF(Q).

A GRS code of dimension K evaluates polynomials of degree < K at N distinct
points, scaling column j by a nonzero multiplier v_j.  The dual is again GRS
on the same points with the classical dual multipliers; the canonical parity
check stored here is that dual's Vandermonde-style generator, and syndromes
fed to the bounded-distance decoder must be computed against it.

The decoder, :meth:`GrsCode.bd_decode_batch`, takes a batch of syndrome rows:
Berlekamp-Massey (Massey, 1969) in lockstep over the rows for all N - K steps,
``np.where`` masks where rows differ; the Chien search as one
:meth:`Field.matmul` product against a cached power table of the inverse
points, which reads only the locator's nonzero coefficients; Forney's formula
(Forney, 1965) at the roots found, with the formal derivative's coefficient
i times i mod p.  Every row is re-verified (locator degree <= t, that many
distinct roots, and a re-encoded syndrome, one product of the decoded error
rows by H^T, equal to the input); a row that fails gets a zero error row and
an int8 reason code indexing :data:`MESSAGES`, never a silent
miscorrection.
:meth:`GrsCode.bd_decode` is the one-row call and raises DecodeFailure.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    BadDimension,
    BadField,
    DecodeFailure,
    DimensionConflict,
    DomainError,
    DuplicatePoint,
    ZeroMultiplier,
)
from .codes import LinearCode
from .galois import Extension
from .matrix import as_codes, chunk_rows

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


def _as_int64(x):
    """The codes ``x`` as a new 1-D int64 array; non-integers are truncated."""
    return np.asarray(x).astype(np.int64).reshape(-1)


def _distinct_codes(ext, a):
    """Whether the 1-D integer array ``a`` holds distinct codes of the
    field, checked by a Q-length boolean scatter, not a sort."""
    if not ((a >= 0) & (a < ext.Q)).all():
        return False
    seen = np.zeros(ext.Q, dtype=bool)
    seen[a] = True
    return np.count_nonzero(seen) == a.size


def _checked_points(ext, points):
    """The points as a 1-D int64 array, checked distinct (DuplicatePoint),
    then codes of the field (DomainError).

    Codes of the field are checked distinct by :func:`_distinct_codes`;
    with a point out of range, which raises anyway, by a set.
    """
    a = _as_int64(points)
    if not _distinct_codes(ext, a):
        if ((a >= 0) & (a < ext.Q)).all() or len(set(a.tolist())) != a.size:
            raise DuplicatePoint("evaluation points must be distinct")
        raise DomainError("points and multipliers must be codes of the field")
    return a


def _berlekamp_massey(f, S, t):
    """Berlekamp-Massey in lockstep over the rows of ``S`` (rows, R), all R
    steps for every row: the connection polynomials (rows, t + 1), lowest
    coefficient first, and their lengths L.

    The length never falls and bounds the degree, so a row that ends with
    L <= t never had a coefficient past t; coefficients past t are dropped,
    which changes only rows that end with L > t, and those fail.
    """
    rows, R = S.shape
    lam = np.zeros((rows, t + 1), dtype=f.dtype)
    lam[:, 0] = 1
    B = np.zeros_like(lam)  # z^m times the locator before the last length change
    B[:, 1] = 1
    b = np.ones(rows, dtype=f.dtype)  # the discrepancy at that change
    L = np.zeros(rows, dtype=np.int64)
    for n in range(R):
        w = min(n, t) + 1
        d = f.add_reduce(f.mul(lam[:, :w], S[:, n::-1][:, :w]), axis=1)
        grow = (d != 0) & (2 * L <= n)
        old = lam
        lam = f.sub(lam, f.mul(f.mul(d, f.inv_table[b])[:, None], B))
        shifted = np.where(grow[:, None], old[:, :-1], B[:, :-1])
        B = np.zeros_like(B)
        B[:, 1:] = shifted
        b = np.where(grow, d, b)
        L = np.where(grow, n + 1 - L, L)
    return lam, L


def _scaled_powers(ext, log_scale, points, rows, start=0):
    """The (rows, N) matrix ``s_j * a_j^i``, i = start .. start + rows - 1,
    for column scales given by logs."""
    i = np.arange(start, start + rows, dtype=np.int64)[:, None]
    out = ext.exp[(log_scale[None, :] + i * ext.log[points][None, :]) % (ext.Q - 1)]
    out[int(start == 0):, points == 0] = 0  # 0^0 = 1, every higher power is 0
    return out


class GrsCode:
    """A generalized Reed-Solomon code (see module docstring).

    :func:`nested_grs_pair` builds the CSS-compatible pairs.
    """

    def __init__(self, ext: Extension, points, multipliers, K: int):
        points = _checked_points(ext, points)
        multipliers = _as_int64(multipliers)
        if multipliers.size != points.size:
            raise DomainError("need one multiplier per point")
        if ((multipliers < 0) | (multipliers >= ext.Q)).any():
            raise DomainError("points and multipliers must be codes of the field")
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
        # generator: row i = (v_j * a_j^i); the dual multipliers are
        # u_j = v_j^{-1} * prod_{m != j} (a_j - a_m)^{-1}
        log_v = ext.log[multipliers]
        log_u = (-log_v - log_diff) % (ext.Q - 1)
        self.G = _scaled_powers(ext, log_v, points, K)
        self.dual_multipliers = ext.exp[log_u]
        self.H = _scaled_powers(ext, log_u, points, N - K)
        self._code = None
        self._chien = None

    @property
    def t(self):
        """Bounded-distance correction radius."""
        return (self.N - self.K) // 2

    def as_linear_code(self) -> LinearCode:
        """The code as a LinearCode; ``G`` is full rank by construction
        (distinct points, nonzero multipliers).  Its ``H`` is the null space
        of ``G``, not the canonical parity check."""
        if self._code is None:
            self._code = LinearCode._full_rank(self.ext.as_field(), self.G)
        return self._code

    def dual(self) -> "GrsCode":
        if self.K == self.N:
            raise BadDimension("dual of the full space has dimension 0")
        return GrsCode._on_points(self.ext, self.points, self.dual_multipliers,
                                  self.N - self.K, self._log_diff)

    def encode(self, msg):
        f = self.ext.as_field()
        return f.matmul(as_codes(f, msg, "message entries"), self.G)

    def syndrome(self, e):
        """Syndrome of an error vector against the canonical parity check."""
        f = self.ext.as_field()
        return f.matmul(as_codes(f, e, "error entries"), self.H.T)

    def _chien_tables(self):
        """The decoder's tables, in the field dtype, built on the first decode
        and kept: the power table ``P[i, j] = a_j^-i`` (i <= t) of the
        inverse points, the Forney factors ``c_j = -a_j / u_j`` and ``H.T``.
        A locator that can pass has degree at most t, so powers past t would
        only multiply zeros."""
        if self._chien is None:
            f = self.ext.as_field()
            i = np.arange(self.t + 1, dtype=np.int64)[:, None]
            P = self.ext.exp[(-i * self.ext.log[self.points]) % (self.ext.Q - 1)]
            c = f.neg(f.mul(self.points, f.inv_table[self.dual_multipliers]))
            self._chien = P.astype(f.dtype), c, np.ascontiguousarray(self.H.T, dtype=f.dtype)
        return self._chien

    def bd_decode_batch(self, S):
        """Errors-only bounded-distance decoding of syndrome rows ``S``
        (rows, N - K), against the canonical parity check.

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
        rows, lam, L = rows[keep], lam[keep], L[keep]
        S = S[rows]
        # Omega = Lambda * S mod z^t: deg Omega < L <= t
        omega = np.zeros((rows.size, t), dtype=f.dtype)
        for i in range(t):
            omega[:, i:] = f.add(omega[:, i:], f.mul(lam[:, i:i + 1], S[:, :t - i]))
        # coefficient i - 1 of Lambda' is i * lambda_i, i read mod p
        dlam = f.mul(lam[:, 1:], np.arange(1, t + 1) % f.p)
        P, c, Ht = self._chien_tables()
        roots = f.matmul(lam, P) == 0
        # a locator of degree <= t has at most t roots: put them first (a
        # copy, so that the (rows, N) sort is freed)
        pos = np.argsort(~roots, axis=1, kind="stable")[:, :t].copy()
        at = np.take_along_axis(roots, pos, axis=1)
        x = P[1][pos]  # 1/a_j at those positions
        num = den = np.zeros(pos.shape, dtype=f.dtype)
        for i in reversed(range(t)):  # Horner
            num = f.add(f.mul(num, x), omega[:, i, None])
            den = f.add(f.mul(den, x), dlam[:, i, None])
        # Forney: e_j = -a_j Omega(1/a_j) / (u_j Lambda'(1/a_j)) at each root
        vals = np.where(at, f.mul(f.mul(num, c[pos]), f.inv_table[den]), 0)
        why = np.select([(at & (den == 0)).any(axis=1), roots.sum(axis=1) != L],
                        [_REPEATED_ROOT, _ROOT_COUNT], 0).astype(np.int8)
        E[rows[:, None], pos] = vals
        why[(why == 0) & (f.matmul(E[rows], Ht) != S).any(axis=1)] = _MISMATCH
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
