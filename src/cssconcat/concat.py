"""Concatenation of an inner CSS pair with an outer pair over GF(q^k).

Each outer symbol is expanded to an inner block through the maps pi_1/pi_2:
the symbol's coordinates -- in the power basis for side 1, in its trace-dual
basis for side 2 -- are contracted against the inner pair's coset generators
g1/g2.  These maps preserve the pairing: Tr(x . y) = <pi_1(x), pi_2(y)>, which
is what makes the concatenated pair

    L1 = pi_1(D1) + blockwise dual(C2),   L2 = pi_2(D2) + blockwise dual(C1)

again a CSS pair of parameters [[nN, kK]].

The structured parity-check matrix of L1 stacks N diagonal copies of C1's
parity check on top of "expanded" copies of D1's parity check: every outer
check coefficient h is turned into its k x k multiplication matrix and each
row of that matrix is contracted against the opposite side's coset
generators.

pi tables.  Both maps act symbol by symbol, so one set-up expands every
GF(q^k) matrix by gathers from the two (Q, n) tables PI_m[x] = pi_m(x),
built once by :func:`pi_map` on all Q codes.  The subfield rows of D_i are
PI_i[alpha^l . D_i.G].  Row r of the k x n block of the expanded check of L2
at a coefficient h is the power-basis coordinates of h alpha^r contracted
against g1, that is PI_1[h alpha^r].  For L1 it is the r-th coordinates of
h alpha^c, c = 0..k-1, contracted against g2.  With beta the trace-dual
basis, coords(y)_r = Tr(y beta_r), so coords(h alpha^c)_r = Tr((h beta_r)
alpha^c): the trace-dual coordinates of h beta_r, and the row is
PI_2[h beta_r].  The checks Ho_i are written in place, Gp_i is a row view of
Ho_i, and the nN-column generators of L1/L2 are built from the tables and
the inner duals only when first read: ``cssconcat concat`` and ``mindist``
and :func:`verify_duality` read them, the decoder and the Monte-Carlo path
never do.

Codes.  Ho_i, Gp_i, the pi tables and the generators and checks of L1/L2
hold codes of the inner field's dtype, ``field.dtype``: ``np.int8`` for
q <= 128, ``np.int16`` above.  It is signed so that the difference of two
codes cannot wrap; products widen to float on their own (see
:meth:`galois.Field.matmul`).  So a pair keeps about one byte per entry
of Ho1 and Ho2: 4 MB at [[2550,1016]], where int64 codes took 31 MB.

Certified set-up.  :func:`concatenate` proves its postconditions from the
block structure.  It eliminates two n-column inner matrices and, for a
LinearCode outer code, the N-column generator behind its null-space H; never
a matrix nN columns wide, nor a GF(q^k) matrix of a GRS code.  Write
K_i = dim D_i, and gen_i for the generators of
L_i (the subfield rows of D_i expanded, over N diagonal copies of a basis of
dual(C2) for i = 1, of dual(C1) for i = 2).  The factor facts are

  (R) D_i.G and Hout_i have full rank over GF(q^k), and Hout_i has N - K_i
      rows: a GRS code by construction (distinct points, nonzero
      multipliers); a LinearCode when its G and H have N rows together,
      since one of them spans the null space of the other;
  (I) [dual(C2) basis; g1] and [dual(C1) basis; g2] have full rank, so each
      g_i is independent modulo the opposite dual (two n-column ranks);
  (P) dual(C2).dual(C1)^T = 0, g_i lies in C_i, and g1.g2^T = I (one
      n-column product).

Dimensions.  A vanishing GF(q)-combination of the rows of gen1 is, in every
block, a combination of the g1 rows modulo dual(C2), so by (I) the power-
basis coordinates of each symbol of the combined D1-word vanish; by (R) the
GF(q^k)-combination of the rows of D1.G is trivial, and what is left is a
combination of the diagonal copies of a basis.  Hence

    dim L1 = k K1 + N (n - k2),    dim L2 = k K2 + N (n - k1).

The lower rows of Ho1 are, in every block and modulo dual(C1), combinations
of the g2 rows whose coefficients form the GF(q)-expansion of Hout1; by (I)
a vanishing combination of Ho1's rows reduces to y^T Hout1 = 0 over GF(q^k),
so y = 0 by (R).  Hence, with k2 = n - k1 + k,

    rank Ho1 = N (n - k1) + k (N - K1) = nN - dim L1,

Ho1 has full row rank, and symmetrically rank Ho2 = nN - dim L2.

Duality and containment.  By (P) every block of gen1.Ho1^T, gen2.Ho2^T and
Ho1.Ho2^T vanishes that does not involve an expanded outer check.  Those
that do are computed over GF(q), each product at most nN columns wide:

    pi_1(D1).Gp1^T = 0,    pi_2(D2).Gp2^T = 0,    Gp1.Gp2^T = 0,

and every n-column block of Gp1 against dual(C2), of Gp2 against dual(C1).
Gp1.Gp2^T = 0 holds exactly when Hout1.Hout2^T = 0, the outer containment,
through the trace pairing.  With the ranks above, row space(Ho_i) =
dual(L_i), and Ho1.Ho2^T = 0 is the containment dual(L2) <= L1.
:func:`verify_duality` checks the same identities by elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import CssPair, LinearCode
from .errors import (
    BadComplement,
    FieldMismatch,
    LengthMismatch,
    NotOrthogonal,
    RankDeficient,
)
from .galois import Extension
from .matrix import MatGF, chunk_rows
from .outer_grs import GrsCode


def pi_map(m: int, pair: CssPair, ext: Extension, x) -> np.ndarray:
    """Expand a length-N vector over GF(q^k) to a length-nN vector over GF(q).

    ``m`` selects the side: 1 contracts power-basis coordinates against g1,
    2 contracts trace-dual coordinates against g2.
    """
    if m not in (1, 2):
        raise ValueError("side must be 1 or 2")
    if ext.base != pair.field:
        raise FieldMismatch("inner pair and extension base differ")
    if pair.k != ext.k:
        raise LengthMismatch(f"inner pair has k={pair.k} but extension degree is {ext.k}")
    x = np.asarray(x, dtype=np.int64).reshape(-1)
    if m == 1:
        coords = ext.coords(x)  # (N, k) power-basis coordinates
        g = pair.g1
    else:
        coords = ext.dual_table[x]  # (N, k) trace-dual coordinates
        g = pair.g2
    return pair.field.matmul(coords, g).reshape(-1)


def pi_table(m: int, pair: CssPair, ext: Extension) -> np.ndarray:
    """The (Q, n) table whose row x is :func:`pi_map` of the code x."""
    return pi_map(m, pair, ext, np.arange(ext.Q)).reshape(ext.Q, pair.n)


def pi_rows(m: int, pair: CssPair, ext: Extension, M) -> np.ndarray:
    """Apply :func:`pi_map` to every row of a matrix over GF(q^k)."""
    M = np.asarray(M)
    return pi_table(m, pair, ext)[M].reshape(M.shape[0], pair.n * M.shape[1])


def _expand(table, M, out=None):
    """The rows of ``M`` over GF(q^k) expanded through a pi table, written
    into ``out`` (a row block of a C-ordered array) when it is given.

    The codes of ``M`` are in range, so ``np.take`` may clip instead of
    checking, which keeps it from buffering ``out``.
    """
    if out is None:
        out = np.empty((M.shape[0], M.shape[1] * table.shape[1]), dtype=table.dtype)
    np.take(table, M, axis=0, out=out.reshape(*M.shape, table.shape[1]), mode="clip")
    return out


def _blockwise(H, out):
    """Write diagonal copies of ``H`` into the zeroed row block ``out``."""
    m, n = H.shape
    N = out.shape[1] // n
    i = np.arange(N)
    out.reshape(N, m, N, n)[i, :, i, :] = H


def _subfield_rows(ext: Extension, M) -> np.ndarray:
    """Base-field generating set of a GF(q^k)-row space: all alpha^l * row.

    Row ``r * k + l`` is ``alpha^l * M[r]``.
    """
    M = np.asarray(M)
    alphas = np.asarray(ext.power_basis(), dtype=np.int64)
    scaled = ext.mul(M[:, None, :], alphas[None, :, None])
    return scaled.reshape(M.shape[0] * ext.k, M.shape[1])


def _concatenated_rows(ext, table, G, H):
    """Generators of pi(row space of G) + blockwise row space of H over GF(q):
    the expanded subfield rows of ``G`` above N diagonal copies of ``H``."""
    S = _subfield_rows(ext, G)
    N = S.shape[1]
    m, n = H.shape
    out = np.zeros((len(S) + N * m, N * n), dtype=table.dtype)
    _expand(table, S, out[:len(S)])
    _blockwise(H, out[len(S):])
    return out


def build_parity_check(inner: CssPair, ext: Extension, Hout, side: int = 1):
    """The structured parity check of the concatenated code on one side.

    ``Hout`` is a full-rank parity check (M x N over GF(q^k)) of the outer
    code whose concatenation is being checked.  Returns ``(Ho, lower)`` where
    ``Ho`` stacks N diagonal copies of the inner parity check above the
    expanded outer check ``lower`` (the k*M x n*N block matrix), a row view
    of ``Ho``.
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    Hout = np.asarray(Hout, dtype=np.int64)
    if Hout.ndim != 2:
        raise RankDeficient("outer parity check must be a matrix")
    M = Hout.shape[0]
    if M and MatGF(ext.as_field(), Hout).rank != M:
        raise RankDeficient("outer parity check is not full rank")
    return _expanded_check(inner, ext, Hout, side)


def _expanded_check(inner: CssPair, ext: Extension, Hout, side: int):
    """:func:`build_parity_check` without the rank check of ``Hout``.

    Row ``j * k + r`` of ``lower`` is PI_2[Hout[j] * beta_r] on side 1 and
    PI_1[Hout[j] * alpha^r] on side 2 (see the module docstring).
    """
    n, k = inner.n, inner.k
    M, N = Hout.shape
    H_in = inner.C1.H if side == 1 else inner.C2.H
    basis = ext.dual_basis() if side == 1 else ext.power_basis()
    scaled = ext.mul(Hout[:, None, :], np.asarray(basis, dtype=np.int64)[None, :, None])
    top = N * len(H_in)
    Ho = np.zeros((top + k * M, n * N), dtype=inner.field.dtype)
    _blockwise(H_in, Ho[:top])
    lower = _expand(pi_table(3 - side, inner, ext), scaled.reshape(k * M, N), Ho[top:])
    return Ho, lower


@dataclass
class ConcatPair:
    """The concatenated CSS pair with its structured parity checks.

    ``Ho1``/``Ho2`` are the parity checks of L1/L2; ``Gp1``/``Gp2`` their
    lower (expanded outer) parts; ``Hout1``/``Hout2`` the outer parity
    checks they were built from; ``PI1``/``PI2`` the (Q, n) tables of
    pi_1/pi_2.  ``grs1``/``grs2`` hold bounded-distance decodable handles
    when the outer codes are GRS.  The codes ``L1``/``L2`` are built on
    first access.
    """

    inner: CssPair
    ext: Extension
    D1: LinearCode
    D2: LinearCode
    Ho1: np.ndarray
    Ho2: np.ndarray
    Gp1: np.ndarray
    Gp2: np.ndarray
    Hout1: np.ndarray
    Hout2: np.ndarray
    PI1: np.ndarray
    PI2: np.ndarray
    grs1: GrsCode | None = None
    grs2: GrsCode | None = None

    @cached_property
    def L1(self) -> LinearCode:
        """L1 = pi_1(D1) + blockwise dual(C2), full rank by the certificate."""
        return LinearCode._full_rank(self.inner.field, _concatenated_rows(
            self.ext, self.PI1, self.D1.G, self.inner.C2.H))

    @cached_property
    def L2(self) -> LinearCode:
        """L2 = pi_2(D2) + blockwise dual(C1), full rank by the certificate."""
        return LinearCode._full_rank(self.inner.field, _concatenated_rows(
            self.ext, self.PI2, self.D2.G, self.inner.C1.H))

    @property
    def n(self):
        return self.inner.n

    @property
    def k(self):
        return self.inner.k

    @property
    def N(self):
        return self.D1.n

    @property
    def K(self):
        return self.D1.dim + self.D2.dim - self.N

    @property
    def block_length(self):
        return self.n * self.N

    @property
    def logical_dims(self):
        return self.k * self.K

    def __repr__(self):
        return (f"ConcatPair[[{self.block_length},{self.logical_dims}]] "
                f"(inner [[{self.n},{self.k}]], outer N={self.N})")


def _unwrap_outer(D):
    """``(code, Hout, grs)`` of an outer code, with the facts (R) of the
    module docstring checked for a LinearCode."""
    if isinstance(D, GrsCode):
        return D.as_linear_code(), D.H, D
    if not isinstance(D, LinearCode):
        raise TypeError("outer codes must be GrsCode or LinearCode")
    if D.H.shape[0] != D.n - D.dim:
        raise RankDeficient("outer parity check is not full rank")
    return D, D.H, None


def _pi_product_nonzero(ext: Extension, table, G, Gp) -> bool:
    """Whether ``pi(G).Gp^T`` is nonzero over GF(q), for the rows of ``G``
    over GF(q^k) and the pi table ``table``.

    pi(G) is expanded and multiplied a chunk of rows of ``G`` at a time.  A
    chunk has the rows of :func:`matrix.chunk_rows`, or as many expanded
    rows as ``Gp`` when that is more: every product converts ``Gp`` to
    float, so a chunk of codes never outgrows that copy, and ``Gp`` is
    converted at most ceil(K / M) times for K rows of ``G`` and M outer
    checks.
    """
    f = ext.base
    step = max(chunk_rows(ext.k * Gp.shape[1], table.itemsize), len(Gp) // ext.k)
    return any(f.matmul(_expand(table, _subfield_rows(ext, G[lo:lo + step])), Gp.T).any()
               for lo in range(0, len(G), step))


def _check_inner(inner: CssPair):
    """The facts (I) and (P) of the module docstring, on n-column matrices."""
    f, k = inner.field, inner.k
    A = np.concatenate([inner.C2.H, inner.g1], axis=0)
    B = np.concatenate([inner.C1.H, inner.g2], axis=0)
    if MatGF(f, A).rank != len(A) or MatGF(f, B).rank != len(B):
        raise RankDeficient("inner coset generators are not independent "
                            "modulo the dual codes")
    want = np.zeros((len(A), len(B)), dtype=np.int64)
    want[len(A) - k:, len(B) - k:] = np.eye(k, dtype=np.int64)
    if not np.array_equal(f.matmul(A, B.T), want):
        raise BadComplement("inner pair is not paired: dual(C2).dual(C1)^T, "
                            "g1.dual(C1)^T, dual(C2).g2^T or g1.g2^T - I is nonzero")


def concatenate(inner: CssPair, outer, ext: Extension) -> ConcatPair:
    """Concatenate an inner CSS pair with an outer pair over GF(q^k).

    ``outer`` is a pair (D1, D2) of GrsCode or LinearCode objects over the
    extension field, themselves satisfying the CSS containment.

    The result is certified as derived in the module docstring, from the
    factor ranks and products over GF(q): ``dim L1 = k K1 + N(n - k2)`` and
    ``dim L2 = k K2 + N(n - k1)``, ``rank Ho_i = nN - dim L_i``, and the
    duality and containment from ``pi_1(D1).Gp1^T``, ``pi_2(D2).Gp2^T`` and
    ``Gp1.Gp2^T`` being zero, with the blocks of ``Gp_i`` orthogonal to the
    inner duals.  ``pi_i(D_i)`` is formed in row chunks for its check and
    dropped; the generators of L1/L2 are built from the pi tables when first read.
    Raises NotOrthogonal when the outer pair violates the CSS containment,
    RankDeficient or BadComplement when a factor or product fails its
    certificate.
    """
    D1, Hout1, grs1 = _unwrap_outer(outer[0])
    D2, Hout2, grs2 = _unwrap_outer(outer[1])
    if ext.base != inner.field:
        raise FieldMismatch("inner pair and extension base differ")
    if inner.k != ext.k:
        raise FieldMismatch(f"inner k={inner.k} does not match extension degree {ext.k}")
    if D1.field != ext.as_field() or D2.field != ext.as_field():
        raise FieldMismatch("outer codes must live over the extension field")
    if D1.n != D2.n:
        raise LengthMismatch("outer codes of different length")
    _check_inner(inner)
    f, n = inner.field, inner.n
    Ho1, Gp1 = _expanded_check(inner, ext, Hout1, side=1)
    Ho2, Gp2 = _expanded_check(inner, ext, Hout2, side=2)
    if f.matmul(Gp1, Gp2.T).any():
        raise NotOrthogonal("outer pair violates the CSS containment")
    PI1, PI2 = pi_table(1, inner, ext), pi_table(2, inner, ext)
    if (_pi_product_nonzero(ext, PI1, D1.G, Gp1)
            or _pi_product_nonzero(ext, PI2, D2.G, Gp2)
            or f.matmul(Gp1.reshape(-1, n), inner.C2.H.T).any()
            or f.matmul(Gp2.reshape(-1, n), inner.C1.H.T).any()):
        raise RankDeficient("expanded outer check is not orthogonal to the "
                            "concatenated code")
    return ConcatPair(inner=inner, ext=ext, D1=D1, D2=D2, Ho1=Ho1, Ho2=Ho2,
                      Gp1=Gp1, Gp2=Gp2, Hout1=Hout1, Hout2=Hout2, PI1=PI1, PI2=PI2,
                      grs1=grs1, grs2=grs2)


def verify_duality(cp: ConcatPair) -> bool:
    """Check both concatenated duality identities by null-space computation.

    Verifies that the dual of L1 equals pi_2(dual D1) + blockwise dual(C1)
    and symmetrically for L2, and that the structured parity checks span
    exactly those duals.
    """
    f = cp.inner.field
    fQ = cp.ext.as_field()

    def dual_gen(side):
        D, table, H = ((cp.D1, cp.PI2, cp.inner.C1.H) if side == 1
                       else (cp.D2, cp.PI1, cp.inner.C2.H))
        Dperp = MatGF(fQ, D.G).null_space().a
        return MatGF(f, _concatenated_rows(cp.ext, table, Dperp, H))

    ok = True
    ok &= cp.L1.Gmat.null_space().same_row_space(dual_gen(1))
    ok &= cp.L2.Gmat.null_space().same_row_space(dual_gen(2))
    ok &= MatGF(f, cp.Ho1).same_row_space(cp.L1.Gmat.null_space())
    ok &= MatGF(f, cp.Ho2).same_row_space(cp.L2.Gmat.null_space())
    return bool(ok)
