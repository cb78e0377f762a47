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

Sides.  The sides differ by a convention alone, chosen in one place,
:func:`_conventions`: side 1 reads power-basis coordinates (``coord_table``,
inverted by ``from_coords``) against g1 and scales its lower check by the
trace-dual basis beta; side 2 reads trace-dual coordinates (``dual_table``,
inverted by ``from_dual_coords``) against g2 and scales it by alpha^r.
:func:`_sides` builds from it one :class:`Side` record per side s, o the
other side: the inner code C_s; the block factor HgT_s = [C_s.H; g_o]^T, with
m_s = len(C_s.H); the (Q, k) table coords_s and its inverse; the (Q, n) pi
table PI_s[x] = coords_s[x] g_s = pi_s(x); and the scales.  A pair keeps
both records, and :func:`pi_map`, the checks, the certificate,
:func:`verify_duality` and the decoder read them instead of choosing again.
The maps act symbol by symbol, so every GF(q^k) matrix is expanded by
gathers from the pi tables: the subfield rows of D_s are PI_s[alpha^l D_s.G],
and row r of the k x n block of the lower check of L_s at a coefficient h
is PI_o[h scales_s[r]].  For L1 it is the r-th coordinates of h alpha^c,
c = 0..k-1, against g2: as coords(y)_r = Tr(y beta_r), these are the
trace-dual coordinates of h beta_r.

Codes.  A pair keeps its outer codes, which hold no matrix, its records,
(Q, n) arrays at most, and no check Ho_s (Ho1 and Ho2 are 84 MB at
[[12276,5110]]): :meth:`ConcatPair.parity_check` builds one for ``cssconcat
concat --out`` and :func:`verify_duality`, and decoding and syndromes read
the tables.  The generators of L1/L2, read by ``concat --out`` and
``mindist``, are built from the tables when first read and then kept.  Ho_s,
the pi tables and the generators and checks of L1/L2 hold codes of the inner
field's dtype, ``field.dtype``: ``np.int8`` for q <= 128, ``np.int16`` above.
It is signed so that the difference of two codes cannot wrap; products widen
to float on their own (see :meth:`galois.Field.matmul`).

Certified set-up.  :func:`concatenate` proves its postconditions from the
block structure.  On a valid pair it eliminates nothing, forms no matrix
nN columns wide and no product wider than n.  Write Hout_s = D_s.H,
K_s = dim D_s, and gen_s for the generators of L_s: the subfield rows of
D_s expanded, over N diagonal copies of a basis of dual(C_o).  The factor
facts are

  (R) D_s.G and Hout_s have full rank over GF(q^k), and Hout_s has N - K_s
      rows (:mod:`outer_grs`, "CSS certificate");
  (I) [C_s.H; g_o] = HgT_s^T has full rank, so g_o is independent modulo
      dual(C_s);
  (P) C2.H.C1.H^T = 0, g_s lies in C_s, and g1.g2^T = I: the one n-column
      product [C2.H; g1].[C1.H; g2]^T = [[0, 0], [0, I]], the product that
      also certifies a CssPair when it is built (codes._pairing).

(I) follows from (P) and the row counts len(C_s.H) = n - k_s.  The row
space of C_s.H is dual(C_s), of dimension n - k_s, so with that many rows
C_s.H has full rank.  If a.C_s.H + b.g_o = 0, multiplying by g_s^T gives
b = 0, as C_s.H.g_s^T = 0 and g_o.g_s^T = I; then a.C_s.H = 0, so a = 0.
So a valid pair costs one product and no elimination.  Only when the
product fails are the two ranks computed, to raise RankDeficient for a
dependent row and BadComplement otherwise; a row count above n - k_s, a
repeated row of C_s.H, raises RankDeficient.

Dimensions.  A vanishing GF(q)-combination of the rows of gen_s is, in
every block, a combination of the g_s rows modulo dual(C_o), so by (I) the
coordinates coords_s of each symbol of the combined D_s-word vanish; by (R)
the GF(q^k)-combination of the rows of D_s.G is trivial, and what is left
is a combination of the diagonal copies of a basis.  The lower rows of Ho_s
are, in every block and modulo dual(C_s), combinations of the g_o rows
whose coefficients form the GF(q)-expansion of Hout_s; by (I) a vanishing
combination of Ho_s's rows reduces to y^T Hout_s = 0 over GF(q^k), so y = 0
by (R).  Hence, with k1 + k2 = n + k, Ho_s has full row rank and

    dim L_s = k K_s + N (n - k_o),
    rank Ho_s = N (n - k_s) + k (N - K_s) = nN - dim L_s.

Outer facts.  By (P) the only blocks of gen1.Ho1^T, gen2.Ho2^T and
Ho1.Ho2^T left to check are pi_1(D1).Gp1^T, pi_2(D2).Gp2^T and Gp1.Gp2^T,
each nN columns wide.  Write y_s for the scaled symbols Hout_s[j]
scales_s[r], row j k + r; row j k + r of W_s holds coords_o[y_s], the
coordinates of every symbol in the other side's convention, from the
extension, not from the pi tables.

  (B) Every n-column block of Gp_s times HgT_o is [0 | its W_s part], so by
      (P), as for a CssPair, it lies in C_o = dual(C_s) + span(g_o) and is
      c g_o + d, d in dual(C_s), with c = block.g_s^T its W_s part.

Gp_s is the gather PI_o[y_s], and the W_s part of its block b in row j k + r
is the coords_o row of the same symbol y_s[j k + r, b].  So (B) asks

  (B') PI_s.HgT_s = [0 | coords_s] for s = 1, 2, on all Q rows: one (Q, n)
       by (n, m_s + k) product a side.

Tables built by :func:`_sides` satisfy it by (P), as PI_s[x] = coords_s[x]
g_s, g_s C_s.H^T = 0 and g_s g_o^T = I; when (B') holds, the pi tables the
decoder gathers from are certified too.

By (P) the d parts pair to zero with g1, g2 and each other, so Gp1.Gp2^T =
W1.W2^T, pi_1(D1).Gp1^T = X1.W1^T and pi_2(D2).Gp2^T = Y2.W2^T, with X1 and
Y2 the power-basis and trace-dual coordinates of the rows alpha^l D_s.G.  As
sum_c Tr(x alpha^c) coords(y)_c = Tr(x y), their entries are
Tr(beta_r alpha^s z), Tr(beta_r alpha^l z) and Tr(alpha^(l+r) z) for the
entries z of Hout1.Hout2^T, D1.G.Hout1^T and D2.G.Hout2^T over GF(q^k).  The
trace form is nondegenerate, so each product vanishes exactly when its
GF(q^k) product does:

  (O) Hout1.Hout2^T = 0;
  (C) D1.G.Hout1^T = 0 and D2.G.Hout2^T = 0.

With the ranks above, row space(Ho_s) = dual(L_s), and Ho1.Ho2^T = 0 is the
containment dual(L2) <= L1.  :func:`verify_duality` checks row space(Ho_s) =
null space(gen_s) by elimination, one comparison a side, which implies the
identity for dual(L_s) (its docstring).  Adding an element of the opposite
inner dual to a block passes (B) and keeps every postcondition.

Outer certificate.  :func:`concatenate` checks (B') on all Q rows of both
tables, which gives (B) whatever y_s reads, then (O) and (C) by
:func:`outer_grs.certify_css_pair`.  With (B') on every table row the
nN-column products are their trace forms (Outer facts), so they vanish
exactly when (O) and (C) hold.  A row failing (B') raises RankDeficient:
the tables are built here from the certified inner pair, so such a row is
a fault, and decoding adds PI[X] for any decoded symbol X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

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
from .matrix import MatGF, check_codes
from .outer_grs import GrsCode, certify_css_pair

# The longest block length nN that verify_duality eliminates: with one BLAS
# thread on 2 shared vCPUs, [[2550,1016]] takes 0.5 s at a 13.2 MiB traced peak,
# [[8184,3400]] 17 s at 136 MiB and [[12276,5110]] 50 s at 305 MiB.
VERIFY_CAP = 1 << 13


def _conventions(inner: CssPair, ext: Extension):
    """The one choice of convention (module docstring, "Sides"): for side 1
    and then side 2, ``(C_s, g_s, coords_s, its inverse, scales_s)``."""
    if ext.base != inner.field:
        raise FieldMismatch("inner pair and extension base differ")
    if inner.k != ext.k:
        raise FieldMismatch(f"inner k={inner.k} does not match extension degree {ext.k}")
    return ((inner.C1, inner.g1, ext.coord_table, ext.from_coords, ext.dual_basis),
            (inner.C2, inner.g2, ext.dual_table, ext.from_dual_coords, ext.power_basis))


@dataclass(frozen=True, eq=False)
class Side:
    """One side s of a concatenated pair, o the other (module docstring,
    "Sides"); ``scales`` and ``from_coords`` are the extension's methods,
    so the trace-dual basis and the inverse of ``dual_table`` stay lazy."""

    code: LinearCode  # the inner code C_s, whose check tops Ho_s
    HgT: np.ndarray  # [C_s.H; g_o]^T, the block factor of (B')
    coords: np.ndarray  # (Q, k) coordinates: coord_table, dual_table
    from_coords: Callable  # their inverse: from_coords, from_dual_coords
    PI: np.ndarray  # (Q, n): PI[x] = coords[x] . g_s
    scales: Callable  # the k scales of the lower check: dual_basis, power_basis

    @property
    def m(self) -> int:
        return len(self.code.H)


def _sides(inner: CssPair, ext: Extension):
    """The two :class:`Side` records of ``inner`` over ``ext``, side 1 first."""
    conv = _conventions(inner, ext)
    return tuple(Side(C, np.concatenate([C.H, g_o]).T, coords, inverse,
                      inner.field.matmul(coords, g), scales)
                 for (C, g, coords, inverse, scales), (_, g_o, *_) in zip(conv, conv[::-1]))


def _facing(pair, side: int):
    """The entries of the per-side ``pair`` for ``side`` and the other side."""
    return pair[side - 1], pair[2 - side]


def pi_map(m: int, pair: CssPair, ext: Extension, x) -> np.ndarray:
    """Expand a length-N vector over GF(q^k) to a length-nN vector over GF(q)
    by pi_m, ``m`` the side (module docstring, "Sides")."""
    if m not in (1, 2):
        raise DomainError("side must be 1 or 2")
    _, g, coords, _, _ = _conventions(pair, ext)[m - 1]
    x = check_codes(x, ext.Q, "element codes").reshape(-1)
    return pair.field.matmul(np.take(coords, x, axis=0), g).reshape(-1)


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
    S = _scaled(ext, G, ext.power_basis())  # the subfield rows: row r k + l is alpha^l G[r]
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
    return _expanded_check(ext, *_facing(_sides(inner, ext), side), Hout)


def _expanded_check(ext: Extension, this: Side, other: Side, Hout):
    """:func:`build_parity_check` without the rank check of ``Hout``: N
    diagonal copies of this side's inner check above ``lower``, whose row
    ``j * k + r`` is the other side's PI[Hout[j] * scales_r] (module
    docstring)."""
    y = _scaled(ext, Hout, this.scales())
    top = y.shape[1] * this.m
    Ho = np.zeros((top + len(y), other.PI.shape[1] * y.shape[1]), dtype=other.PI.dtype)
    _blockwise(this.code.H, Ho[:top])
    return Ho, _expand(other.PI, y, Ho[top:])


def _scaled(ext: Extension, M, scales):
    """Row ``j * k + r`` is M[j] * scales[r] over GF(q^k)."""
    basis = np.asarray(scales, dtype=np.int64)
    rows = np.take(ext.as_field().mul_table[basis], M, axis=1)  # (k, rows, N)
    return rows.transpose(1, 0, 2).reshape(-1, M.shape[1])


@dataclass
class ConcatPair:
    """The concatenated CSS pair, kept as its factors.

    ``D1``/``D2`` are the outer GRS codes, which also decode the outer
    stage, with parity checks ``Hout1``/``Hout2`` = ``D1.H``/``D2.H``;
    ``sides`` the two :class:`Side` records, whose pi tables are
    ``PI1``/``PI2``.  The codes ``L1``/``L2`` are built from the tables on
    first access and kept; :meth:`parity_check` builds a structured check on
    every call and keeps none.  Set-up, decoding and Monte-Carlo read none
    of them.
    """

    inner: CssPair
    ext: Extension
    D1: GrsCode
    D2: GrsCode
    sides: tuple[Side, Side]

    @property
    def outer(self):
        return self.D1, self.D2

    def parity_check(self, side: int) -> np.ndarray:
        """A fresh structured parity check Ho_side of L_side, gathered from
        the other side's pi table; its last k (N - K_side) rows are the
        expanded outer check Gp_side."""
        if side not in (1, 2):
            raise DomainError("side must be 1 or 2")
        return _expanded_check(self.ext, *_facing(self.sides, side), self.outer[side - 1].H)[0]

    def _concatenated(self, side: int) -> LinearCode:
        """L_side = pi_side(D_side) + blockwise dual(C_other), full rank by
        the certificate."""
        this, other = _facing(self.sides, side)
        return LinearCode._full_rank(self.inner.field, _concatenated_rows(
            self.ext, this.PI, self.outer[side - 1].G, other.code.H))

    @cached_property
    def L1(self) -> LinearCode:
        return self._concatenated(1)

    @cached_property
    def L2(self) -> LinearCode:
        return self._concatenated(2)

    @property
    def PI1(self) -> np.ndarray:
        return self.sides[0].PI

    @property
    def PI2(self) -> np.ndarray:
        return self.sides[1].PI

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


def _tables_hold(sides) -> bool:
    """(B') on every row of the pi table of each :class:`Side`:
    PI.HgT = [0 | coords]."""
    for side in sides:
        P = side.code.field.matmul(side.PI, side.HgT)
        if P[:, :side.m].any() or (P[:, side.m:] != side.coords).any():
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
    sides = _sides(inner, ext)
    if D1.ext != ext or D2.ext != ext:
        raise FieldMismatch("outer codes must live over the extension field")
    if D1.N != D2.N:
        raise LengthMismatch("outer codes of different length")
    _check_inner(inner)
    if not _tables_hold(sides):
        raise RankDeficient("a pi-table row fails (B')")
    certify_css_pair(D1, D2)
    return ConcatPair(inner=inner, ext=ext, D1=D1, D2=D2, sides=sides)


def verify_duality(cp: ConcatPair) -> bool:
    """Check both concatenated duality identities by elimination:
    dual(L1) = pi_2(dual D1) + blockwise dual(C1), and symmetrically for L2.

    One comparison a side: the row space of the structured check Ho_s
    (:meth:`ConcatPair.parity_check`) equals the null space of gen_s, the
    generators of L_s built from the pi tables.  The identity follows from
    it:

      - the lower rows of Ho_s are pi_o(Hout_s[j] scales_s[r]), and as r
        runs over the k scales, a basis of GF(q^k) over GF(q), their
        GF(q)-span is pi_o of the GF(q^k) row space of Hout_s;
      - those rows are orthogonal to pi_s(D_s), the upper rows of gen_s.
        Through the pi tables, which (B') certified when the pair was
        built, that pairing is the trace form Tr(x y) of the module
        docstring ("Outer facts"), nondegenerate, so D_s.G.Hout_s^T = 0;
      - by (I), as in "Dimensions", rank Ho_s = N (n - k_s) + k rank Hout_s
        and dim L_s = k rank D_s.G + N (n - k_o).  The comparison makes
        rank Ho_s = nN - dim L_s, and k_s + k_o = n + k, so rank Hout_s =
        N - rank D_s.G: Hout_s spans dual(D_s), and the lower rows of Ho_s
        span pi_o(dual D_s).

    Each side builds gen_s and Ho_s as locals, eliminates gen_s for its null
    space and Ho_s once, and frees every nN-column matrix before the next
    side starts.  Nothing is read from or cached on the pair.  A pair
    longer than :data:`VERIFY_CAP` raises TooLarge before any elimination.
    """
    if cp.block_length > VERIFY_CAP:
        raise TooLarge(f"verify_duality of nN = {cp.block_length} exceeds the cap {VERIFY_CAP}")
    f = cp.inner.field
    ok = True
    for side, D in ((1, cp.D1), (2, cp.D2)):
        this, other = _facing(cp.sides, side)
        # the generators and their rref die as soon as the null space is taken
        dual = MatGF(f, _concatenated_rows(cp.ext, this.PI, D.G, other.code.H)).null_space()
        ok &= MatGF(f, cp.parity_check(side)).same_row_space(dual)
        del dual  # and the null space with its rref before the next side
    return bool(ok)
