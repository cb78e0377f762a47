"""Enlargement of a dual-containing code into a larger symplectic code.

Given C with dual(C) <= C and a strictly larger C' with dim C' >= dim C + 2,
the enlarged generator stacks two disjoint copies of C's generator U with a
mixed block [V | M V], where V completes C to C' and M is a fixed-point-free
matrix (no nonzero row vector is mapped to a scalar multiple of itself).  M
acts on coefficient rows: the combination c of the mixed rows is
[c V | (c M) V].
Fixed-point-freeness is what pushes the guaranteed symplectic distance up to

    min{ d, ceil((q+1) d' / q) },   d = w(C \\ dual C'),  d' = w(C' \\ dual C').

The module also provides the recursive generator family of distance-2
dual-containing inner codes over fields containing GF(4), and the pipeline
that concatenates such an inner code with a nested tower of GRS outer codes
before enlarging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .codes import ENUM_CAP, LinearCode, _row_profile, min_weight_excluding
from .concat import _concatenated_rows
from .errors import (
    BadField,
    BadLength,
    ConditionViolation,
    Degenerate,
    DomainError,
    PremiseViolation,
    TooLarge,
)
from .galois import Extension, Field, _shift_matrix
from .matrix import MatGF, digits, enumerate_span
from .outer_grs import GrsCode

SYMP_ENUM_CAP = 1 << 24


def _has_root(field, coeffs):
    """Whether x^m - sum_i coeffs[i] x^i, m = len(coeffs), vanishes anywhere
    in the field: Horner's rule at all q elements at once."""
    xs = np.arange(field.q)
    acc = np.ones(field.q, dtype=np.int64)
    for c in reversed(coeffs):
        acc = field.sub(field.mul(acc, xs), c)
    return not acc.all()


def fixed_point_free_matrix(field, m: int) -> np.ndarray:
    """An m x m matrix with xM != lambda*x for every nonzero x and scalar.

    Built as the matrix of multiplication by x on coefficient rows modulo a
    degree-m polynomial without roots in GF(q): xM = lambda x would make
    (x - lambda) divide it.  A rootless polynomial of the minimal degree
    congruent to m modulo q-1 is found by scanning, then its degree is padded
    up to m (padding preserves rootlessness because nonzero elements satisfy
    x^(q-1) = 1).
    """
    if m < 2:
        raise DomainError("a 1x1 matrix always fixes directions; need m >= 2")
    q = field.q
    deg = 2 + ((m - 2) % (q - 1)) if q > 2 else 2
    found = None
    for packed in range(1, q ** deg):
        coeffs = [int(c) for c in digits(packed, q, deg)]
        if coeffs[0] == 0:
            continue
        if not _has_root(field, coeffs):
            found = coeffs
            break
    if found is None:  # pragma: no cover - always exists for prime powers
        raise DomainError("no rootless polynomial found")
    M = _shift_matrix(np.array([found + [0] * (m - deg)], dtype=np.int64))
    if not _verify_fixed_point_free(field, M):  # pragma: no cover
        raise DomainError("construction produced a fixed direction")
    return M


def _verify_fixed_point_free(field, M) -> bool:
    """Whether xM = lambda x forces x = 0: rank(M - lambda I) = m for every
    lambda in GF(q), one m x m elimination per field element."""
    m = M.shape[0]
    eye = np.eye(m, dtype=np.int64)
    return all(MatGF(field, field.sub(M, lam * eye)).rank == m for lam in range(field.q))


@dataclass
class EnlargedCode:
    """A symplectic code enlarging a dual-containing CSS-type code."""

    field: Field
    U: np.ndarray
    V: np.ndarray
    M: np.ndarray
    G: np.ndarray
    C: LinearCode
    Cprime: LinearCode
    report: dict = dc_field(default_factory=dict)

    @property
    def length(self):
        return self.C.n

    @property
    def logical_dims(self):
        return self.C.dim + self.Cprime.dim - self.C.n

    def __repr__(self):
        return f"EnlargedCode[[{self.length},{self.logical_dims}]] over GF({self.field.q})"


def steane_enlarge(C: LinearCode, Cprime: LinearCode) -> EnlargedCode:
    """Enlarge dual-containing C using a strictly larger Cprime.

    Requires dual(C) <= C <= Cprime and dim Cprime >= dim C + 2.  The
    resulting generator has the block layout [[U, 0], [0, U], [V, M V]]
    described in the module docstring.  V is the first rows of Cprime.G
    independent modulo C: the g1 of the row profile of (Cprime, dual C),
    which completes dual(dual C) = C inside Cprime.
    """
    f = C.field
    if not C.dual().is_subcode(C):
        raise PremiseViolation("C must contain its dual")
    if not C.is_subcode(Cprime):
        raise PremiseViolation("C must be a subcode of Cprime")
    extra = Cprime.dim - C.dim
    if extra < 2:
        raise PremiseViolation("enlargement needs dim Cprime >= dim C + 2")
    U = C.G
    V = _row_profile(Cprime, C.dual())[0]
    M = fixed_point_free_matrix(f, extra)
    MV = f.matmul(M, V)
    n = C.n
    K = C.dim
    z = np.zeros((K, n), dtype=np.int64)
    G = np.concatenate([
        np.concatenate([U, z], axis=1),
        np.concatenate([z, U], axis=1),
        np.concatenate([V, MV], axis=1),
    ], axis=0)
    return EnlargedCode(field=f, U=U, V=V, M=M, G=G, C=C, Cprime=Cprime)


def symplectic_dual(field, G) -> np.ndarray:
    """Basis of the dual of the row space under the standard symplectic form.

    The form pairs (u1,v1) with (u2,v2) as <u1,v2> - <v1,u2>.
    """
    G = np.asarray(G, dtype=np.int64)
    n = G.shape[1] // 2
    twisted = np.concatenate([field.neg(G[:, n:]), G[:, :n]], axis=1)
    return MatGF(field, twisted).null_space().a


def symplectic_min_distance(field, G, cap: int = SYMP_ENUM_CAP) -> int:
    """Minimum pair weight over the span of G excluding its symplectic dual."""
    G = np.asarray(G, dtype=np.int64)
    Gm = MatGF(field, G)
    R, _, rank = Gm.rref()
    basis = R.a[:rank]
    if field.q ** rank > cap:
        raise TooLarge(f"enumerating {field.q}^{rank} codewords exceeds cap")
    H = MatGF(field, symplectic_dual(field, G))
    n = G.shape[1] // 2
    best = None
    for chunk in enumerate_span(field, basis):
        inside = H.span_contains_rows(chunk)
        outside = chunk[~inside]
        if outside.shape[0]:
            w = (outside[:, :n].astype(bool) | outside[:, n:].astype(bool)).sum(axis=1)
            m = int(w.min())
            if best is None or m < best:
                best = m
    if best is None:
        raise Degenerate("the span lies entirely inside its symplectic dual")
    return best


def enlargement_distance_floor(d: int, dprime: int, q: int) -> int:
    """Guaranteed symplectic distance of the enlarged code."""
    return min(d, math.ceil((q + 1) * dprime / q))


def _order3_element(field):
    for x in range(2, field.q):
        if field.mul(x, field.mul(x, x)) == 1 and x != 1:
            return x
    raise BadField("field has no element of multiplicative order 3")


def distance2_inner_generator(field, n: int):
    """The recursive (n-1) x n generator of a distance-2 dual-containing code.

    Requires a field of order 2^(2m) (so it contains GF(4)) and n >= 3.
    Returns ``(G, b, gs)``: the full generator, its first row b (all entries
    nonzero, self-orthogonal) and the remaining rows gs, which are
    orthonormal and orthogonal to b.
    """
    if field.p != 2 or field.e % 2 != 0:
        raise BadField("need a field of order 2^(2m)")
    if n < 3:
        raise BadLength("the recursion starts at length 3")
    z = _order3_element(field)
    z2 = field.mul(z, z)
    G = np.array([[z, z2, 1], [z2, z, 0]], dtype=np.int64)
    for cur in range(3, n):
        lam = int(G[0, cur - 1])
        rows = G.shape[0]
        # step 1: drop the last column, add a zero row, paste the 2-column gadget
        left = np.concatenate([G[:, :-1], np.zeros((1, cur - 1), dtype=np.int64)],
                              axis=0)
        gadget = np.zeros((rows + 1, 2), dtype=np.int64)
        gadget[0] = [field.mul(lam, z), field.mul(lam, z2)]
        gadget[-1] = [z2, z]
        G = np.concatenate([left, gadget], axis=1)
        # step 2: clear the rightmost column below the top row
        c = field.mul(z2, field.inv(lam))
        G[-1] = field.add(G[-1], field.mul(np.full(cur + 1, c, dtype=np.int64), G[0]))
    b = G[0].copy()
    gs = G[1:].copy()
    if field.dot(b, b) != 0 or (b == 0).any():  # pragma: no cover
        raise DomainError("first row lost self-orthogonality")
    gram = field.matmul(gs, gs.T)
    if not np.array_equal(gram, np.eye(n - 2, dtype=np.int64)):  # pragma: no cover
        raise DomainError("remaining rows lost orthonormality")
    if field.matmul(gs, b[:, None]).any():  # pragma: no cover
        raise DomainError("rows not orthogonal to the first")
    return MatGF(field, G), b, [row.copy() for row in gs]


def enlarged_concat(C1: LinearCode, g1, ext: Extension, D: GrsCode,
                    Dprime: GrsCode, cap: int = ENUM_CAP) -> EnlargedCode:
    """Concatenate-then-enlarge with a nested GRS outer tower.

    Conditions: (A) C1 contains its dual; (B) ``g1`` is an orthonormal set
    completing dual(C1) to C1; (C) the extension admits a self-dual basis.
    ``D`` and ``Dprime`` must satisfy dual(D) <= D < Dprime on shared points.
    With a self-dual basis paired with orthonormal generators the two
    expansion maps coincide, so both codes of the tower use the same map.
    """
    f = C1.field
    if not C1.dual().is_subcode(C1):
        raise ConditionViolation("(A) inner code does not contain its dual")
    g1 = np.array(g1, dtype=np.int64)
    k = g1.shape[0]
    gram, cross = f.matmul(g1, g1.T), f.matmul(g1, C1.H.T)
    # orthonormal rows orthogonal to dual(C1) are independent modulo it, so
    # [C1.H; g1] spans C1 exactly when the dimensions add up
    if (not np.array_equal(gram, np.eye(k, dtype=np.int64)) or cross.any()
            or C1.n - C1.dim + k != C1.dim):
        raise ConditionViolation("(B) generators are not an orthonormal completion")
    if ext.base != f or ext.k != k:
        raise ConditionViolation("(B) generator count does not match the extension degree")
    sdb = ext.self_dual_basis()
    if sdb is None:
        raise ConditionViolation("(C) extension has no self-dual basis")
    Dlin, Dplin = D.as_linear_code(), Dprime.as_linear_code()
    if not (np.array_equal(D.points, Dprime.points)
            and np.array_equal(D.multipliers, Dprime.multipliers)):
        raise ConditionViolation("(B) outer tower must share points and multipliers")
    if not Dlin.dual().is_subcode(Dlin):
        raise ConditionViolation("(B) outer code does not contain its dual")
    if not Dlin.is_subcode(Dplin) or Dprime.K < D.K + 1:
        raise ConditionViolation("(B) outer codes do not nest")
    # expansion table: symbol -> self-dual coordinates contracted with g1; the
    # coordinates of x in a self-dual basis b are Tr(x b_i) = dual_table[x].coords(b_i)
    T = f.matmul(f.matmul(ext.dual_table, ext.coords(sdb).T), g1)
    Cbig = LinearCode(f, _concatenated_rows(ext, T, D.G, C1.H))
    Cprime_big = LinearCode(f, _concatenated_rows(ext, T, Dprime.G, C1.H))
    # steane_enlarge checks dual(Cbig) <= Cbig <= Cprime_big as its premises
    if Cprime_big.dim - Cbig.dim < 2:
        raise ConditionViolation("(B) tower gap below 2 after expansion")
    enl = steane_enlarge(Cbig, Cprime_big)
    # distance floors: inner quotient distance times outer code distances
    d1 = min_weight_excluding(C1, C1.dual(), cap)
    d_floor = d1 * (D.N - D.K + 1)
    dprime_floor = d1 * (Dprime.N - Dprime.K + 1)
    enl.report = {
        "d_floor": d_floor,
        "dprime_floor": dprime_floor,
        "guaranteed": enlargement_distance_floor(d_floor, dprime_floor, f.q),
    }
    return enl
