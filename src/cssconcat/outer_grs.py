"""Generalized Reed-Solomon codes over an extension field GF(Q).

A GRS code of dimension K evaluates polynomials of degree < K at N distinct
points, scaling column j by a nonzero multiplier v_j.  The dual is again GRS
on the same points with the classical dual multipliers; the canonical parity
check stored here is that dual's Vandermonde-style generator, and syndromes
fed to the bounded-distance decoder must be computed against it.

The decoder solves the key equation with the extended Euclidean algorithm
(error locator + evaluator), locates roots among the inverse evaluation
points, and recovers magnitudes with the derivative formula.  Its output is
always re-verified against the input syndrome; anything inconsistent is
reported as DecodeFailure rather than silently miscorrected.
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
from .matrix import chunk_rows


# -- polynomial helpers over a field (coefficient lists, low first) ----------

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _deg(p):
    return len(p) - 1


def _poly_add(f, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = f.add(x, y)
    return _trim(out)


def _poly_scale(f, a, c):
    return _trim([f.mul(x, c) for x in a])


def _poly_mul(f, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _trim(out)


def _poly_divmod(f, a, b):
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = f.inv(b[-1])
    for i in range(len(a) - 1, len(b) - 2, -1):
        if a[i]:
            c = f.mul(a[i], inv_lead)
            q[i - (len(b) - 1)] = c
            for j, bj in enumerate(b):
                a[i - (len(b) - 1) + j] = f.sub(a[i - (len(b) - 1) + j],
                                                f.mul(c, bj))
    return _trim(q), _trim(a[: len(b) - 1])


def _poly_eval(f, p, x):
    acc = 0
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _poly_deriv(f, p):
    char = f.p
    out = []
    for i in range(1, len(p)):
        out.append(f.mul(p[i], i % char))
    return _trim(out)


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


def _scaled_powers(ext, log_scale, points, rows):
    """The (rows, N) matrix ``s_j * a_j^i`` for column scales given by logs."""
    i = np.arange(rows, dtype=np.int64)[:, None]
    out = ext.exp[(log_scale[None, :] + i * ext.log[points][None, :]) % (ext.Q - 1)]
    out[1:, points == 0] = 0  # 0^0 = 1, every higher power is 0
    return out


class GrsCode:
    """A generalized Reed-Solomon code (see module docstring).

    Use :func:`grs_code` / :func:`nested_grs_pair` to construct instances.
    """

    def __init__(self, ext: Extension, points, multipliers, K: int):
        points = [int(x) for x in points]
        multipliers = [int(x) for x in multipliers]
        N = len(points)
        if len(set(points)) != N:
            raise DuplicatePoint("evaluation points must be distinct")
        if len(multipliers) != N:
            raise DomainError("need one multiplier per point")
        if any(not 0 <= x < ext.Q for x in points + multipliers):
            raise DomainError("points and multipliers must be codes of the field")
        if any(v == 0 for v in multipliers):
            raise ZeroMultiplier("column multipliers must be nonzero")
        if not 1 <= K <= N:
            raise BadDimension(f"dimension K={K} out of range [1, {N}]")
        if N > ext.Q:
            raise DomainError("more points than field elements")
        self.ext = ext
        self.N = N
        self.K = K
        self.points = np.array(points, dtype=np.int64)
        self.multipliers = np.array(multipliers, dtype=np.int64)
        # generator: row i = (v_j * a_j^i); the dual multipliers are
        # u_j = v_j^{-1} * prod_{m != j} (a_j - a_m)^{-1}
        log_v = ext.log[self.multipliers]
        log_u = (-log_v - _log_difference_products(ext, self.points)) % (ext.Q - 1)
        self.G = _scaled_powers(ext, log_v, self.points, K)
        self.dual_multipliers = ext.exp[log_u]
        self.H = _scaled_powers(ext, log_u, self.points, N - K)
        self._code = None

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
        return GrsCode(self.ext, self.points, self.dual_multipliers,
                       self.N - self.K)

    def encode(self, msg):
        return self.ext.as_field().matmul(np.asarray(msg, dtype=np.int64), self.G)

    def syndrome(self, e):
        """Syndrome of an error vector against the canonical parity check."""
        if self.N == self.K:
            return np.zeros(0, dtype=np.int64)
        return self.ext.as_field().matmul(np.asarray(e, dtype=np.int64), self.H.T)

    def bd_decode(self, syndrome):
        """Errors-only bounded-distance decoding from a canonical syndrome.

        Returns the unique error vector of weight <= t matching the syndrome,
        or raises DecodeFailure.
        """
        f = self.ext.as_field()
        R = self.N - self.K
        syndrome = np.asarray(syndrome, dtype=np.int64).reshape(-1)
        if syndrome.shape[0] != R:
            raise DomainError(f"syndrome must have length {R}")
        e = np.zeros(self.N, dtype=np.int64)
        if not syndrome.any():
            return e
        t = R // 2
        if t == 0:
            raise DecodeFailure("nonzero syndrome but zero correction radius")
        if (self.points == 0).any():
            raise DomainError("decoding requires nonzero evaluation points")
        S = _trim([int(c) for c in syndrome])
        # extended Euclid on (z^R, S): track r and the S-cofactor v
        r_prev = [0] * R + [1]
        r_cur = list(S)
        v_prev: list[int] = []
        v_cur = [1]
        stop = (R + 1) // 2
        while r_cur and _deg(r_cur) >= stop:
            q, rem = _poly_divmod(f, r_prev, r_cur)
            r_prev, r_cur = r_cur, rem
            v_next = _poly_add(f, v_prev, _poly_scale(f, _poly_mul(f, q, v_cur),
                                                    f.neg(1)))
            v_prev, v_cur = v_cur, v_next
        lam, omega = v_cur, r_cur
        if not lam or lam[0] == 0:
            raise DecodeFailure("degenerate error locator")
        c = f.inv(lam[0])
        lam = _poly_scale(f, lam, c)
        omega = _poly_scale(f, omega, c)
        if _deg(lam) > t:
            raise DecodeFailure("locator degree exceeds radius")
        dlam = _poly_deriv(f, lam)
        nerr = 0
        for j in range(self.N):
            x = int(self.points[j])
            xinv = f.inv(x)
            if _poly_eval(f, lam, xinv) == 0:
                num = f.mul(x, _poly_eval(f, omega, xinv))
                den = _poly_eval(f, dlam, xinv)
                if den == 0:
                    raise DecodeFailure("repeated locator root")
                y = f.neg(f.div(num, den))
                e[j] = f.div(y, int(self.dual_multipliers[j]))
                nerr += 1
        if nerr != _deg(lam) or nerr > t:
            raise DecodeFailure("locator roots do not match its degree")
        if not np.array_equal(self.syndrome(e), syndrome):
            raise DecodeFailure("re-encoded syndrome mismatch")
        return e

    def __repr__(self):
        return f"GrsCode[{self.N},{self.K}] over GF({self.ext.Q})"


def grs_code(ext: Extension, points, multipliers, K: int) -> GrsCode:
    return GrsCode(ext, points, multipliers, K)


def default_points(ext: Extension, N: int):
    """The first N powers of the primitive root: (1, alpha, alpha^2, ...)."""
    if N > ext.Q - 1:
        raise DomainError(f"default points need N <= Q-1 = {ext.Q - 1}")
    return [ext.alpha_pow(j) for j in range(N)]


def nested_grs_pair(ext: Extension, N: int, K1: int, K2: int):
    """A CSS-compatible nested pair (D1, D2) of GRS codes on shared points.

    D1 is the plain RS code of dimension K1; D2 is the dual of the RS code of
    dimension N-K2 (again GRS on the same points), so dual(D2) is the RS code
    of dimension N-K2, contained in D1 whenever K1 + K2 >= N.  D2 is built
    directly, as the GRS code of dimension K2 with D1's dual multipliers.
    """
    if K1 + K2 < N:
        raise DimensionConflict("need K1 + K2 >= N for a nested pair")
    points = default_points(ext, N)
    ones = [1] * N
    D1 = GrsCode(ext, points, ones, K1)
    if K2 == N:
        D2 = GrsCode(ext, points, ones, N)
    else:
        # dual multipliers depend on the points and multipliers, not on K
        D2 = GrsCode(ext, points, D1.dual_multipliers, K2)
    return D1, D2


def self_dual_multiplier_grs(ext: Extension, points, K: int) -> GrsCode:
    """A GRS code whose dual shares its multipliers (characteristic 2 only).

    With v_j the square root of prod_{m != j}(a_j - a_m)^{-1}, the dual of
    GRS_K(a, v) is GRS_{N-K}(a, v); dimension nesting then gives towers
    dual(D) <= D <= D' on the same points whenever N - K <= K.
    """
    if ext.base.p != 2:
        raise BadField("square-root multipliers need characteristic 2")
    points = np.array([int(x) for x in points], dtype=np.int64)
    # in characteristic 2, s^(Q/2) is the square root of s
    logs = (-_log_difference_products(ext, points) * (ext.Q // 2)) % (ext.Q - 1)
    return GrsCode(ext, points, ext.exp[logs], K)
