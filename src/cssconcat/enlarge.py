"""Enlargement of a dual-containing code into a larger symplectic code.

Given C with dual(C) <= C and a strictly larger C' with dim C' >= dim C + 2,
the enlarged generator stacks two disjoint copies of C's generator U with a
mixed block [V | M V], where V completes C to C' and M is a fixed-point-free
matrix (no nonzero row vector is mapped to a scalar multiple of itself).  M
acts on coefficient rows: the combination c of the mixed rows is
[c V | (c M) V].  The code is kept as these factors, C, V and M: C' = C +
span(V) and the stacked generator are built only when read.
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

from .codes import (ENUM_CAP, CssPair, LinearCode, _row_profile, min_weight_excluding,
                    min_weight_outside, validate_css)
from .concat import _concatenated_rows, _expand, _scaled
from .errors import (
    BadComplement,
    BadField,
    BadLength,
    ConditionViolation,
    Degenerate,
    DomainError,
    FieldMismatch,
    NotOrthogonal,
    PremiseViolation,
    RankDeficient,
)
from .galois import Extension, Field, _first_polynomial, _shift_matrix
from .matrix import MatGF
from .outer_grs import GrsCode, certify_css_pair


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
    found = _first_polynomial(q, deg, lambda c: not _has_root(field, c))
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
    """A symplectic code enlarging a dual-containing CSS-type code, kept as
    its factors: C, the completion V of C to C' = C + span(V) and the
    fixed-point-free M."""

    field: Field
    V: np.ndarray
    M: np.ndarray
    C: LinearCode
    report: dict = dc_field(default_factory=dict)

    @property
    def G(self) -> np.ndarray:
        """The generator [[U, 0], [0, U], [V, M V]] of the module docstring,
        U = C.G, in codes of ``field.dtype``, stacked on every read and kept
        nowhere."""
        U = self.C.G
        z = np.zeros(U.shape, dtype=self.field.dtype)
        return np.block([[U, z], [z, U], [self.V, self.field.matmul(self.M, self.V)]])

    @property
    def length(self):
        return self.C.n

    @property
    def logical_dims(self):
        return 2 * self.C.dim + len(self.V) - self.C.n  # dim C + dim C' - n

    def __repr__(self):
        return f"EnlargedCode[[{self.length},{self.logical_dims}]] over GF({self.field.q})"


def steane_enlarge(C: LinearCode, Cprime: LinearCode) -> EnlargedCode:
    """Enlarge dual-containing C using a strictly larger Cprime.

    Requires dual(C) <= C <= Cprime and dim Cprime >= dim C + 2: the first
    by the product C.H C.H^T = 0 (:func:`codes.validate_css`), the second by
    elimination, as the codes are arbitrary, read from files.  V is the
    first rows of Cprime.G independent modulo C: the g1 of the row profile
    of (Cprime, dual C), which completes dual(dual C) = C inside Cprime.
    """
    f = C.field
    if not validate_css(C, C):
        raise PremiseViolation("C must contain its dual")
    if not C.is_subcode(Cprime):
        raise PremiseViolation("C must be a subcode of Cprime")
    extra = Cprime.dim - C.dim
    if extra < 2:
        raise PremiseViolation("enlargement needs dim Cprime >= dim C + 2")
    return EnlargedCode(field=f, V=_row_profile(Cprime, C.dual())[0],
                        M=fixed_point_free_matrix(f, extra), C=C)


def symplectic_dual(field, G) -> np.ndarray:
    """Basis of the dual of the row space under the standard symplectic form.

    The form pairs (u1,v1) with (u2,v2) as <u1,v2> - <v1,u2>; the rows of G
    are (u, v) pairs, so G must have an even number of columns (DomainError).
    """
    G = np.asarray(G, dtype=np.int64)
    if G.shape[1] % 2:
        raise DomainError("a symplectic generator needs an even number of columns")
    n = G.shape[1] // 2
    twisted = np.concatenate([field.neg(G[:, n:]), G[:, :n]], axis=1)
    return MatGF(field, twisted).null_space().a


def symplectic_min_distance(field, G, cap: int = ENUM_CAP) -> int:
    """Minimum pair weight (the positions i where u_i or v_i is nonzero)
    over the span of G excluding its symplectic dual, by the enumerator
    `codes.min_weight_outside`."""
    H = MatGF(field, symplectic_dual(field, G))
    R, _, rank = MatGF(field, G).rref()
    n = H.cols // 2
    best = min_weight_outside(field, R.a[:rank], H,
                              lambda rows: np.count_nonzero(rows[:, :n] | rows[:, n:], axis=1),
                              cap)
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


def _contains_dual(D1: GrsCode, D2: GrsCode) -> bool:
    """Whether :func:`outer_grs.certify_css_pair` accepts dual(D2) <= D1."""
    try:
        certify_css_pair(D1, D2)
    except (NotOrthogonal, RankDeficient):
        return False
    return True


def enlarged_concat(C1: LinearCode, g1, ext: Extension, D: GrsCode,
                    Dprime: GrsCode, cap: int = ENUM_CAP) -> EnlargedCode:
    """Concatenate-then-enlarge with a nested GRS outer tower.

    Conditions: (A) C1 contains its dual and (B) ``g1`` is an orthonormal
    set completing dual(C1) to C1, the certificate of ``CssPair(C1, C1, g1,
    g1)`` (NotOrthogonal fails (A), BadComplement (B)); (C) the extension
    admits a self-dual basis, decided exactly by
    :meth:`galois.Extension.self_dual_basis`: one exists iff q is even or k is odd.
    ``D`` and ``Dprime`` must satisfy dual(D) <= D < Dprime on shared points
    (:func:`outer_grs.certify_css_pair` on (D, D) and (Dprime, D.dual())),
    and live over ``ext``: codes over another extension raise FieldMismatch.

    These checks are the one proof of the enlargement's premises; the code
    is built from its factors, with no elimination nN columns wide.  Write
    T[x] = coords(x).g1 for the self-dual coordinates of x, T(D) for the
    expanded subfield rows alpha^l D.G[r] (row r k + l), C = T(D) +
    dual(C1)^N and C' = T(Dprime) + dual(C1)^N.  Dprime shares D's points
    and multipliers, so its first K rows are D.G, and C' = C + span(V) for
    V = T(Dprime.G[K:]), its k(K' - K) other expanded rows.  C is built
    from D.G, V from those rows, and C' not at all.

      - By (C) the coordinates are self-dual and by (B) g1 is orthonormal,
        so <T[x], T[y]> = Tr(xy): one map serves both sides of the pairing.
      - By (B) T[x] lies in C1, and by (A) dual(C1) <= C1.  So T(dual D) +
        dual(C1)^N is orthogonal to C; by the dimensions below and
        n - k1 + k = k1 it is dual(C), which lies in C as dual(D) <= D.
        C <= C' as D <= Dprime.
      - D.G and Dprime.G have full rank (distinct points, nonzero
        multipliers), and so has [C1.H; g1] by (B) when C1.H has n - k1
        rows.  So dim C = kK + N(n - k1) and dim C' = kK' + N(n - k1): the
        rows of V are independent modulo C, the rows the row profile of
        (C', dual C) picks in :func:`steane_enlarge`.
    """
    f = C1.field
    try:
        g1 = CssPair(C1, C1, g1, g1).g1
    except NotOrthogonal:
        raise ConditionViolation("(A) inner code does not contain its dual") from None
    except BadComplement:
        if np.shape(g1)[-1:] != (C1.n,):
            raise DomainError(f"g1 rows must have length {C1.n}") from None
        raise ConditionViolation("(B) generators are not an orthonormal completion") from None
    k = len(g1)
    if ext.base != f or ext.k != k:
        raise ConditionViolation("(B) generator count does not match the extension degree")
    if D.ext != ext or Dprime.ext != ext:
        raise FieldMismatch("outer codes must live over the extension field")
    sdb = ext.self_dual_basis()
    if sdb is None:
        raise ConditionViolation("(C) extension has no self-dual basis")
    if not (np.array_equal(D.points, Dprime.points)
            and np.array_equal(D.multipliers, Dprime.multipliers)):
        raise ConditionViolation("(B) outer tower must share points and multipliers")
    if not _contains_dual(D, D):
        raise ConditionViolation("(B) outer code does not contain its dual")
    if Dprime.K <= D.K or not _contains_dual(Dprime, D.dual()):
        raise ConditionViolation("(B) outer codes do not nest")
    if len(C1.H) != C1.n - C1.dim:  # a repeated row: the N copies of C1.H are dependent
        raise RankDeficient("generator matrix is not full rank")
    if k * (Dprime.K - D.K) < 2:
        raise ConditionViolation("(B) tower gap below 2 after expansion")
    # expansion table: symbol -> self-dual coordinates contracted with g1; the
    # coordinates of x in a self-dual basis b are Tr(x b_i) = dual_table[x].coords(b_i)
    T = f.matmul(f.matmul(ext.dual_table, ext.coords(sdb).T), g1)
    V = _expand(T, _scaled(ext, Dprime.G[D.K:], ext.power_basis()))
    enl = EnlargedCode(field=f, V=V, M=fixed_point_free_matrix(f, len(V)),
                       C=LinearCode._full_rank(f, _concatenated_rows(ext, T, D.G, C1.H)))
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
