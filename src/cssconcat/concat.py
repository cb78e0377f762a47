"""Concatenation of an inner CSS pair with an outer pair of GRS codes over
GF(q^k).

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
PI_2[h beta_r].

Codes.  A pair keeps its outer codes, which hold no matrix, its pi tables,
(Q, n) each, and no check Ho_i (Ho1 and Ho2 are 84 MB at [[12276,5110]]):
:meth:`ConcatPair.parity_check` builds one for ``cssconcat concat --out``
and :func:`verify_duality`, and decoding and syndromes read the tables.
The generators of L1/L2, read by ``concat --out`` and ``mindist``, are
built from the tables when first read and then kept.  Ho_i, the pi tables
and the generators and checks of L1/L2 hold codes of the inner field's
dtype, ``field.dtype``: ``np.int8`` for q <= 128, ``np.int16`` above.  It
is signed so that the difference of two codes cannot wrap; products widen
to float on their own (see :meth:`galois.Field.matmul`).

Certified set-up.  :func:`concatenate` proves its postconditions from the
block structure.  On a valid pair it eliminates nothing, forms no matrix
nN columns wide and no product wider than n.  Write Hout_i = D_i.H,
K_i = dim D_i, and gen_i for the generators of L_i (the subfield rows of
D_i expanded, over N diagonal copies of a basis of dual(C2) for i = 1, of
dual(C1) for i = 2).  The factor facts are

  (R) D_i.G and Hout_i have full rank over GF(q^k), and Hout_i has N - K_i
      rows (:mod:`outer_grs`, "CSS certificate");
  (I) [C2.H; g1] and [C1.H; g2] have full rank, so each g_i is independent
      modulo the opposite dual;
  (P) C2.H.C1.H^T = 0, g_i lies in C_i, and g1.g2^T = I: the one n-column
      product [C2.H; g1].[C1.H; g2]^T = [[0, 0], [0, I]], the product that
      also certifies a CssPair when it is built (codes._pairing).

(I) follows from (P) and the row counts len(C_i.H) = n - k_i.  The row
space of C_i.H is dual(C_i), of dimension n - k_i, so with that many rows
C_i.H has full rank.  If a.C2.H + b.g1 = 0, multiplying by g2^T gives b = 0,
as C2.H.g2^T = 0 and g1.g2^T = I; then a.C2.H = 0, so a = 0.  The same
holds for [C1.H; g2] with g1^T.  So a valid pair costs one product and no
elimination.  Only when the product fails are the two ranks computed, to
raise RankDeficient for a dependent row and BadComplement otherwise; a row
count above n - k_i, a repeated row of C_i.H, raises RankDeficient.

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

Outer facts.  By (P) the only blocks of gen1.Ho1^T, gen2.Ho2^T and
Ho1.Ho2^T left to check are pi_1(D1).Gp1^T, pi_2(D2).Gp2^T and Gp1.Gp2^T,
each nN columns wide.  Row j k + r of W1 holds the trace-dual coordinates
dual_table[Hout1[j] beta_r], and of W2 the power-basis coordinates
coords(Hout2[j] alpha^r), of every symbol; both come from the extension,
not from the pi tables.

  (B) Every n-column block of Gp1 times [C2.H; g1]^T is [0 | its W1 part],
      so by (P), as for a CssPair, it lies in C2 = dual(C1) + span(g2) and
      is c g2 + d, d in dual(C1), with c = block.g1^T its W1 part.  Every
      block of Gp2 times [C1.H; g2]^T is [0 | its W2 part], symmetrically.

Write y1 and y2 for the scaled symbols Hout1[j] beta_r and Hout2[j]
alpha^r, row j k + r.  Gp1 is the gather PI2[y1]: block b of that row is
PI2[y1[j k + r, b]], whose W1 part is the dual_table row of the same
symbol, and symmetrically Gp2 = PI1[y2] with coord_table.  So the block's
product with [C2.H; g1]^T is row y1[j k + r, b] of

  (B') P2 = PI2.[C2.H; g1]^T, which should be [0 | dual_table], and
       P1 = PI1.[C1.H; g2]^T, which should be [0 | coord_table], on all Q
       rows: one (Q, n) by (n, m + k) product a side.

Tables built by pi_map satisfy (B') by (P): PI2[x] = dual_table[x] g2,
with g2 C2.H^T = 0 and g2 g1^T = I, and PI1[x] = coords(x) g1 likewise.
When (B') holds the pi tables the decoder gathers from are certified too.

By (P) the d parts pair to zero with g1, g2 and each other, so Gp1.Gp2^T =
W1.W2^T, pi_1(D1).Gp1^T = X1.W1^T and pi_2(D2).Gp2^T = Y2.W2^T, with X1 and
Y2 the power-basis and trace-dual coordinates of the rows alpha^l D_i.G.  As
sum_c Tr(x alpha^c) coords(y)_c = Tr(x y), their entries are
Tr(beta_r alpha^s z), Tr(beta_r alpha^l z) and Tr(alpha^(l+r) z) for the
entries z of Hout1.Hout2^T, D1.G.Hout1^T and D2.G.Hout2^T over GF(q^k).  The
trace form is nondegenerate, so each product vanishes exactly when its
GF(q^k) product does:

  (O) Hout1.Hout2^T = 0;
  (C) D1.G.Hout1^T = 0 and D2.G.Hout2^T = 0.

With the ranks above, row space(Ho_i) = dual(L_i), and Ho1.Ho2^T = 0 is the
containment dual(L2) <= L1; :func:`verify_duality` checks the same by
elimination.  Adding an element of the opposite inner dual to a block
passes (B) and keeps every postcondition.

Outer certificate.  :func:`concatenate` checks (B') on all Q rows of both
tables, which gives (B) whatever y_i reads, then (O) and (C) by
:func:`outer_grs.certify_css_pair`.  With (B') on every table row the
nN-column products are their trace forms (Outer facts), so they vanish
exactly when (O) and (C) hold.  A row failing (B') raises RankDeficient:
the tables are built here from the certified inner pair, so such a row is
a fault, and decoding adds PI[X] for any decoded symbol X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .codes import CssPair, LinearCode, _pairing
from .errors import (
    BadComplement,
    DomainError,
    FieldMismatch,
    LengthMismatch,
    RankDeficient,
    TooLarge,
)
from .galois import Extension
from .matrix import MatGF
from .outer_grs import GrsCode, certify_css_pair

# The longest block length nN that verify_duality eliminates: with one BLAS
# thread on 2 shared vCPUs, [[2550,1016]] takes 1.1 s at a 13.3 MiB traced peak,
# [[8184,3400]] 34 s at 136 MiB and [[12276,5110]] 95 s at 306 MiB.
VERIFY_CAP = 1 << 13


def pi_map(m: int, pair: CssPair, ext: Extension, x) -> np.ndarray:
    """Expand a length-N vector over GF(q^k) to a length-nN vector over GF(q).

    ``m`` selects the side: 1 contracts power-basis coordinates against g1,
    2 contracts trace-dual coordinates against g2.
    """
    if m not in (1, 2):
        raise DomainError("side must be 1 or 2")
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


def _concatenated_rows(ext, table, G, H):
    """Generators of pi(row space of G) + blockwise row space of H over GF(q):
    the expanded subfield rows of ``G`` above N diagonal copies of ``H``."""
    S = _scaled(ext, G, 2)  # the subfield rows: row r k + l is alpha^l G[r]
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
        raise DomainError("side must be 1 or 2")
    Hout = np.asarray(Hout, dtype=np.int64)
    if Hout.ndim != 2:
        raise RankDeficient("outer parity check must be a matrix")
    M = Hout.shape[0]
    if M and MatGF(ext.as_field(), Hout).rank != M:
        raise RankDeficient("outer parity check is not full rank")
    return _expanded_check(inner, ext, Hout, side, pi_table(3 - side, inner, ext))


def _expanded_check(inner: CssPair, ext: Extension, Hout, side: int, table):
    """:func:`build_parity_check` without the rank check of ``Hout``, with
    ``table`` the pi table of the other side: row ``j * k + r`` of
    ``lower`` is PI_2[Hout[j] * beta_r] on side 1 and PI_1[Hout[j] *
    alpha^r] on side 2 (module docstring)."""
    y = _scaled(ext, Hout, side)
    H_in = inner.C1.H if side == 1 else inner.C2.H
    top = y.shape[1] * len(H_in)
    Ho = np.zeros((top + len(y), inner.n * y.shape[1]), dtype=inner.field.dtype)
    _blockwise(H_in, Ho[:top])
    return Ho, _expand(table, y, Ho[top:])


def _scaled(ext: Extension, Hout, side: int):
    """Row ``j * k + r`` is Hout[j] * beta_r on side 1, Hout[j] * alpha^r on side 2."""
    basis = np.asarray(ext.dual_basis() if side == 1 else ext.power_basis(), dtype=np.int64)
    rows = np.take(ext.as_field().mul_table[basis], Hout, axis=1)  # (k, M, N)
    return rows.transpose(1, 0, 2).reshape(-1, Hout.shape[1])


@dataclass
class ConcatPair:
    """The concatenated CSS pair, kept as its factors.

    ``D1``/``D2`` are the outer GRS codes, which also decode the outer
    stage, with parity checks ``Hout1``/``Hout2`` = ``D1.H``/``D2.H``;
    ``PI1``/``PI2`` the (Q, n) tables of pi_1/pi_2.  The codes
    ``L1``/``L2`` are built from the tables on first access and kept;
    :meth:`parity_check` builds a structured check on every call and keeps
    none.  Set-up, decoding and Monte-Carlo read none of them.
    """

    inner: CssPair
    ext: Extension
    D1: GrsCode
    D2: GrsCode
    PI1: np.ndarray
    PI2: np.ndarray

    def parity_check(self, side: int) -> np.ndarray:
        """A fresh structured parity check Ho_side of L_side, gathered from
        the other side's pi table; its last k (N - K_side) rows are the
        expanded outer check Gp_side."""
        if side not in (1, 2):
            raise DomainError("side must be 1 or 2")
        D, table = (self.D1, self.PI2) if side == 1 else (self.D2, self.PI1)
        return _expanded_check(self.inner, self.ext, D.H, side, table)[0]

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
    def Hout1(self) -> np.ndarray:
        return self.D1.H

    @property
    def Hout2(self) -> np.ndarray:
        return self.D2.H

    @property
    def n(self):
        return self.inner.n

    @property
    def k(self):
        return self.inner.k

    @property
    def N(self):
        return self.D1.N

    @property
    def K(self):
        return self.D1.K + self.D2.K - self.N

    @property
    def block_length(self):
        return self.n * self.N

    @property
    def logical_dims(self):
        return self.k * self.K

    def __repr__(self):
        return (f"ConcatPair[[{self.block_length},{self.logical_dims}]] "
                f"(inner [[{self.n},{self.k}]], outer N={self.N})")


def _check_inner(inner: CssPair):
    """The facts (I) and (P) of the module docstring: (P) by the one product
    of :func:`codes._pairing` and (I) from it and the row counts of the inner
    checks.  Only a failing product is followed by the two ranks, which pick
    the exception: RankDeficient for a dependent row, BadComplement
    otherwise."""
    f, n = inner.field, inner.n
    paired = _pairing(inner)[1]
    stacks = ((inner.C2.H, inner.g1), (inner.C1.H, inner.g2))
    if (len(inner.C2.H) != n - inner.k2 or len(inner.C1.H) != n - inner.k1
            or not paired and any(MatGF(f, np.concatenate([H, g])).rank != len(H) + len(g)
                                  for H, g in stacks)):
        raise RankDeficient("inner coset generators are not independent "
                            "modulo the dual codes")
    if not paired:
        raise BadComplement("inner pair is not paired: dual(C2).dual(C1)^T, "
                            "g1.dual(C1)^T, dual(C2).g2^T or g1.g2^T - I is nonzero")


def _block_factor(inner: CssPair, side: int):
    """``(m, [H; g]^T)`` of (B): H = C2.H, g = g1 on side 1, C1.H, g2 on side 2."""
    H, g = (inner.C2.H, inner.g1) if side == 1 else (inner.C1.H, inner.g2)
    return len(H), np.concatenate([H, g]).T


def _tables_hold(inner: CssPair, ext: Extension, PI) -> bool:
    """(B') on every row of both pi tables ``PI``: PI2.[C2.H; g1]^T =
    [0 | dual_table] on side 1 and PI1.[C1.H; g2]^T = [0 | coord_table] on
    side 2, [H; g]^T by :func:`_block_factor`."""
    for side, wtab, table in ((1, ext.dual_table, PI[1]), (2, ext.coord_table, PI[0])):
        m, HgT = _block_factor(inner, side)
        P = inner.field.matmul(table, HgT)
        if P[:, :m].any() or (P[:, m:] != wtab).any():
            return False
    return True


def concatenate(inner: CssPair, outer, ext: Extension) -> ConcatPair:
    """Concatenate an inner CSS pair with an outer pair over GF(q^k).

    ``outer`` is a pair (D1, D2) of GrsCode objects over ``ext``,
    themselves satisfying the CSS containment; the pair keeps them as
    ``D1``/``D2``.  Any other type raises TypeError, codes over another
    extension FieldMismatch.

    The result is certified as derived in the module docstring, from the
    factor ranks and products over GF(q): ``dim L1 = k K1 + N(n - k2)`` and
    ``dim L2 = k K2 + N(n - k1)``, ``rank Ho_i = nN - dim L_i``, and the
    duality and containment by (B') on the pi tables and
    :func:`outer_grs.certify_css_pair` on D1/D2.
    The generators of L1/L2 are built from the pi tables when first read,
    the checks Ho_i by :meth:`ConcatPair.parity_check`.
    Raises NotOrthogonal when the outer pair violates the CSS containment,
    RankDeficient or BadComplement when a factor or product fails its
    certificate.
    """
    D1, D2 = outer
    if not (isinstance(D1, GrsCode) and isinstance(D2, GrsCode)):
        raise TypeError("outer codes must be GrsCode")
    if ext.base != inner.field:
        raise FieldMismatch("inner pair and extension base differ")
    if inner.k != ext.k:
        raise FieldMismatch(f"inner k={inner.k} does not match extension degree {ext.k}")
    if D1.ext != ext or D2.ext != ext:
        raise FieldMismatch("outer codes must live over the extension field")
    if D1.N != D2.N:
        raise LengthMismatch("outer codes of different length")
    _check_inner(inner)
    PI1, PI2 = pi_table(1, inner, ext), pi_table(2, inner, ext)
    if not _tables_hold(inner, ext, (PI1, PI2)):
        raise RankDeficient("a pi-table row fails (B')")
    certify_css_pair(D1, D2)
    return ConcatPair(inner=inner, ext=ext, D1=D1, D2=D2, PI1=PI1, PI2=PI2)


def verify_duality(cp: ConcatPair) -> bool:
    """Check both concatenated duality identities by null-space computation.

    Verifies that the dual of L1 equals pi_2(dual D1) + blockwise dual(C1)
    and symmetrically for L2, and that the structured parity checks span
    exactly those duals.  One side at a time: each side builds the
    generators of L_i and the check Ho_i (:meth:`ConcatPair.parity_check`)
    from the pi tables as locals, eliminates the generators once for the
    null space and frees every nN-column matrix before the next side
    starts.  Nothing is read from or cached on the pair.  A pair longer
    than :data:`VERIFY_CAP` raises TooLarge before any elimination.
    """
    if cp.block_length > VERIFY_CAP:
        raise TooLarge(f"verify_duality of nN = {cp.block_length} exceeds the cap {VERIFY_CAP}")
    f = cp.inner.field
    fQ = cp.ext.as_field()
    ok = True
    for side, table, D, H, table_opp, H_opp in (
            (1, cp.PI1, cp.D1, cp.inner.C2.H, cp.PI2, cp.inner.C1.H),
            (2, cp.PI2, cp.D2, cp.inner.C1.H, cp.PI1, cp.inner.C2.H)):
        # the generators and their rref die as soon as the null space is taken
        dual = MatGF(f, _concatenated_rows(cp.ext, table, D.G, H)).null_space()
        Dperp = MatGF(fQ, D.G).null_space().a
        ok &= dual.same_row_space(MatGF(f, _concatenated_rows(cp.ext, table_opp, Dperp, H_opp)))
        ok &= MatGF(f, cp.parity_check(side)).same_row_space(dual)
        del dual  # and the null space with its rref before the next side
    return bool(ok)
