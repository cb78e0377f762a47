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
generators.  The trace-dual basis itself is never materialized for this
construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CssPair, LinearCode, validate_css
from .errors import FieldMismatch, LengthMismatch, NotOrthogonal, RankDeficient
from .galois import Extension
from .matrix import MatGF
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


def pi_rows(m: int, pair: CssPair, ext: Extension, M) -> np.ndarray:
    """Apply :func:`pi_map` to every row of a matrix over GF(q^k)."""
    M = np.asarray(M, dtype=np.int64)
    return pi_map(m, pair, ext, M).reshape(M.shape[0], pair.n * M.shape[1])


def _subfield_rows(ext: Extension, M) -> np.ndarray:
    """Base-field generating set of a GF(q^k)-row space: all alpha^l * row.

    Row ``r * k + l`` is ``alpha^l * M[r]``.
    """
    M = np.asarray(M, dtype=np.int64)
    alphas = np.asarray(ext.power_basis(), dtype=np.int64)
    scaled = ext.mul(M[:, None, :], alphas[None, :, None])
    return scaled.reshape(M.shape[0] * ext.k, M.shape[1])


def build_parity_check(inner: CssPair, ext: Extension, Hout, side: int = 1):
    """The structured parity check of the concatenated code on one side.

    ``Hout`` is a full-rank parity check (M x N over GF(q^k)) of the outer
    code whose concatenation is being checked.  Returns ``(Ho, lower)`` where
    ``Ho`` stacks N diagonal copies of the inner parity check above the
    expanded outer check ``lower`` (the k*M x n*N block matrix).
    """
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    f = inner.field
    n, k = inner.n, inner.k
    Hout = np.asarray(Hout, dtype=np.int64)
    if Hout.ndim != 2:
        raise RankDeficient("outer parity check must be a matrix")
    M, N = Hout.shape
    if M and MatGF(ext.as_field(), Hout).rank != M:
        raise RankDeficient("outer parity check is not full rank")
    H_in = inner.C1.H if side == 1 else inner.C2.H
    g_other = inner.g2 if side == 1 else inner.g1
    upper = np.kron(np.eye(N, dtype=np.int64), H_in)
    # P[j, i, r, c] = coords(Hout[j, i] * alpha^r)[c], the transpose of
    # phi(Hout[j, i]); side 1 contracts phi(h) itself, side 2 its transpose
    alphas = np.asarray(ext.power_basis(), dtype=np.int64)
    P = ext.coords(ext.mul(Hout[:, :, None], alphas[None, None, :]))
    if side == 1:
        P = P.swapaxes(2, 3)
    blocks = f.matmul(P.reshape(M * N * k, k), g_other).reshape(M, N, k, n)
    lower = blocks.transpose(0, 2, 1, 3).reshape(k * M, n * N)
    Ho = np.concatenate([upper, lower], axis=0)
    return Ho, lower


@dataclass
class ConcatPair:
    """The concatenated CSS pair with its structured parity checks.

    ``Ho1``/``Ho2`` are the parity checks of L1/L2; ``Gp1``/``Gp2`` their
    lower (expanded outer) parts; ``Hout1``/``Hout2`` the outer parity
    checks they were built from.  ``grs1``/``grs2`` hold bounded-distance
    decodable handles when the outer codes are GRS.
    """

    inner: CssPair
    ext: Extension
    D1: LinearCode
    D2: LinearCode
    L1: LinearCode
    L2: LinearCode
    Ho1: np.ndarray
    Ho2: np.ndarray
    Gp1: np.ndarray
    Gp2: np.ndarray
    Hout1: np.ndarray
    Hout2: np.ndarray
    grs1: GrsCode | None = None
    grs2: GrsCode | None = None

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
    if isinstance(D, GrsCode):
        return D.as_linear_code(), D.H, D
    if isinstance(D, LinearCode):
        return D, D.H, None
    raise TypeError("outer codes must be GrsCode or LinearCode")


def concatenate(inner: CssPair, outer, ext: Extension) -> ConcatPair:
    """Concatenate an inner CSS pair with an outer pair over GF(q^k).

    ``outer`` is a pair (D1, D2) of GrsCode or LinearCode objects over the
    extension field, themselves satisfying the CSS containment.
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
    if not validate_css(D1, D2):
        raise NotOrthogonal("outer pair violates the CSS containment")
    f = inner.field
    n, N = inner.n, D1.n
    gen1 = np.concatenate([pi_rows(1, inner, ext, _subfield_rows(ext, D1.G)),
                           np.kron(np.eye(N, dtype=np.int64), inner.C2.H)], axis=0)
    gen2 = np.concatenate([pi_rows(2, inner, ext, _subfield_rows(ext, D2.G)),
                           np.kron(np.eye(N, dtype=np.int64), inner.C1.H)], axis=0)
    L1 = LinearCode(f, gen1)
    L2 = LinearCode(f, gen2)
    expected_dim1 = inner.k * D1.dim + (n - inner.k2) * N
    if L1.dim != expected_dim1:
        raise RankDeficient("unexpected L1 dimension")  # pragma: no cover
    if not validate_css(L1, L2):
        raise RankDeficient("concatenated pair violates CSS containment")  # pragma: no cover
    Ho1, Gp1 = build_parity_check(inner, ext, Hout1, side=1)
    Ho2, Gp2 = build_parity_check(inner, ext, Hout2, side=2)
    return ConcatPair(inner=inner, ext=ext, D1=D1, D2=D2, L1=L1, L2=L2,
                      Ho1=Ho1, Ho2=Ho2, Gp1=Gp1, Gp2=Gp2,
                      Hout1=Hout1, Hout2=Hout2, grs1=grs1, grs2=grs2)


def verify_duality(cp: ConcatPair) -> bool:
    """Check both concatenated duality identities by null-space computation.

    Verifies that the dual of L1 equals pi_2(dual D1) + blockwise dual(C1)
    and symmetrically for L2, and that the structured parity checks span
    exactly those duals.
    """
    f = cp.inner.field
    fQ = cp.ext.as_field()
    n, N = cp.n, cp.N

    def dual_gen(side):
        if side == 1:
            Dperp = MatGF(fQ, cp.D1.G).null_space().a
            rows = pi_rows(2, cp.inner, cp.ext, _subfield_rows(cp.ext, Dperp))
            blocks = np.kron(np.eye(N, dtype=np.int64), cp.inner.C1.H)
        else:
            Dperp = MatGF(fQ, cp.D2.G).null_space().a
            rows = pi_rows(1, cp.inner, cp.ext, _subfield_rows(cp.ext, Dperp))
            blocks = np.kron(np.eye(N, dtype=np.int64), cp.inner.C2.H)
        return MatGF(f, np.concatenate([rows, blocks], axis=0))

    ok = True
    ok &= cp.L1.Gmat.null_space().same_row_space(dual_gen(1))
    ok &= cp.L2.Gmat.null_space().same_row_space(dual_gen(2))
    ok &= MatGF(f, cp.Ho1).same_row_space(cp.L1.Gmat.null_space())
    ok &= MatGF(f, cp.Ho2).same_row_space(cp.L2.Gmat.null_space())
    return bool(ok)
