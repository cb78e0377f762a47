"""Two-stage decoding of concatenated CSS pairs from structured syndromes.

Stage 1 looks up a minimum-weight coset leader for each inner block from the
blockwise part of the syndrome.  Whatever the leaders miss differs from the
true error, per block, by an element of the relevant inner code; the part of
that element along the coset generators acts like a single symbol of the
extension field.  The residual against the lower (expanded outer) checks is
exactly the outer GRS syndrome of those symbols, so stage 2 runs
bounded-distance GRS decoding and expands the decoded symbols back to inner
blocks.  Success is judged modulo the stabilizer: an estimate is correct iff
it differs from the channel error by a vector orthogonal to the opposite
concatenated code.

:func:`decode_batch` is the one decoder of syndromes, stage 1 and then the
outer stage below; the scalar :func:`two_stage_decode` is a one-row batch.

Block-level success test.  On side 1 the opposite code is L2 = pi_2(D2) +
blockwise dual(C1), generated by N diagonal copies of C1.H and by the rows
PI2[alpha^l D2.G]; on side 2 it is L1, generated by copies of C2.H and the
rows PI1[alpha^l D1.G].  Write [H; g] for [C1.H; g2] on side 1 and
[C2.H; g1] on side 2 (concat._block_factor of the other side), and w_b for
the GF(Q) symbol whose coordinates are the g-coefficients c_b = v_b.g^T of
block b: w_b = from_coords(c_b) on side 1 and from_dual_coords(c_b) on
side 2.  A difference v = estimate - e is then orthogonal to L_o iff

  (i) every block v_b is orthogonal to the rows of H, and
  (ii) w.D_o.G^T = 0 over GF(Q), D_o = D2 on side 1 and D1 on side 2.

The opposite table is PI_o[x] = wtab[x] g, wtab the extension's dual_table
on side 1 and its coord_table on side 2, as pi_map builds it, so
<v_b, PI_o[x]> = wtab[x].c_b = Tr(x w_b): each pairs dual coordinates with
power-basis ones.  Against the row PI_o[alpha^l D_o.G[r]], v gives
Tr(alpha^l (w.D_o.G^T)_r), which vanishes for every l iff (w.D_o.G^T)_r = 0,
as the trace form is nondegenerate.  One product of the nonzero blocks of v
by [H; g]^T gives (i) and w (:meth:`DecoderContext.block_symbols`); only
rows that pass (i) with some w_b != 0 meet D_o.G^T, in one GF(Q)
product that reads only their nonzero symbols (:meth:`Field.matmul`, in
:meth:`DecoderContext.outside_dual`).  The same product scores
stage 1.  A stage-1 miss e_b - leader_b has the syndrome zero, so it lies
in the side's inner code C = dual(C_o) + span(g'), g' the side's own coset
generators; by (P) of the concat docstring, g'.g^T = I and dual(C_o).g^T =
0, so c_b is its g'-coefficient, and the block is bad, outside dual(C_o),
iff c_b != 0.  Neither test eliminates.

Outer stage.  It needs (G): Gp = PI_o[y], block b of row j k + r of the
side's Gp being PI_o[y] with no dual(C) part, y = Hout[j, b] beta_r on side
1 and Hout[j, b] alpha^r on side 2 (beta the trace-dual basis):
:meth:`concat.ConcatPair.parity_check` builds Gp by that gather, and
:func:`concat.concatenate` certifies every table row the gather can read
((B) and (B') there: every row in the exact GRS certificate, the rows y
reads in the trace-form one).  Then <u_b, PI_o[y]> = Tr(y w(u)_b), w(u)
the symbols w_b of the blocks of u, so block j of u.Gp^T holds the
coordinates of (Hout.w(u))_j that :meth:`DecoderContext.reassemble_symbols`
reads: power-basis on side 1, trace-dual on side 2.  The decoder reads
neither Gp nor Ho: its lengths are N m + k (N - K) for a syndrome and N n
for an error, and :meth:`DecoderContext.full_syndrome` forms e.Ho^T as the
blockwise products e_b.H_side^T followed by those coordinates of Hout.w(e).
The outer syndrome of an error e with stage-1 estimate Ehat is then

  sigma = Hout.w(e - Ehat) = reassemble(S_low) - Hout.zeta,

S_low = e.Gp^T and zeta_b = w(Ehat)_b the symbol of block b's leader, from
the (q^m,) table LZ of leader symbols: :func:`decode_batch` forms no
product nN columns wide, and Monte-Carlo, which knows e, forms sigma as
Hout.z, z = w(e) - zeta (below).  :meth:`DecoderContext.outer_decode` hands
the nonzero rows of sigma to :meth:`GrsCode.bd_decode_batch` in one call,
for both; a decoded word X adds pi_side[X] to the estimate.

Monte-Carlo symbols.  :func:`channel_sim.mc_error_rate` specialises the
test to its own estimates, which are stage-1 leaders plus pi_side[X], X the
outer decoder's word (zero where it fails or does not run).  Block b of
v = estimate - e is then pi_side[X_b] - u_b, u_b = e_b - leader_b the
stage-1 miss.  Both terms lie in C: pi_side[x] is a combination of g', and
u_b has the syndrome zero.  So (i) holds on every Monte-Carlo row, and
w = X - z, z_b the symbol of the miss (:meth:`DecoderContext.miss_symbols`):
the symbol of e_b's g-coefficients less that of the leader of its stage-1
syndrome, both maps to symbols being GF(q)-linear, and the outer syndrome
is Hout.z, as above.  A row whose outer decoding fails has X = 0 and
Hout.z != 0, so z lies outside D_side, which contains dual(D_o), and the
row fails without test (ii).  No array nN columns wide is formed past the
sampled errors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .codes import TABLE_CAP, CosetLeaderTable
from .concat import ConcatPair, _block_factor
from .errors import DomainError
from .matrix import as_codes, chunk_rows, pack


def _nonzero_rows(A):
    """Which rows of the 2-D ``A`` hold a nonzero entry, reduced over a
    transposed copy: numpy ORs its rows whole, where ``A.any(axis=1)`` pays
    a step per row of a few entries."""
    return np.ascontiguousarray(A.T).any(axis=0)


class DecoderContext:
    """Precomputed tables for decoding one side of a concatenated pair.

    Side 1 decodes errors checked by the parity matrix of L1 (inner leaders
    for C1, outer decoding of D1); side 2 is symmetric.  The pair must hold
    (G) of the module docstring, Gp_i = PI_o[y_i], as every pair that
    :func:`concat.concatenate` returns does.
    """

    def __init__(self, cp: ConcatPair, side: int = 1, cap: int = TABLE_CAP):
        if side not in (1, 2):
            raise DomainError("side must be 1 or 2")
        self.cp = cp
        self.side = side
        self.field = cp.inner.field
        self.ext = cp.ext
        self.inner_code = cp.inner.C1 if side == 1 else cp.inner.C2
        self.table = CosetLeaderTable(self.inner_code, cap=cap)
        self.pi = cp.PI1 if side == 1 else cp.PI2  # row x is pi_side(x)
        self.grs = cp.D1 if side == 1 else cp.D2
        self.N = cp.N
        self.n = cp.n
        self.k = cp.k
        self.upper_len = self.N * self.table.m
        self.syndrome_len = self.upper_len + self.k * (self.N - self.grs.K)
        # [H; g]^T of the block-level success test (module docstring)
        self._m, self._HgT = _block_factor(cp.inner, 3 - side)

    @cached_property
    def Ho(self):
        """This side's structured parity check, built on the context on first
        read.  Nothing in the library reads it: it stays for the benchmark's
        traced replay (``perfbench/pipeline.py``), until that replay forms
        its syndromes with :meth:`full_syndrome`."""
        return self.cp.parity_check(self.side)

    @property
    def Gp(self):
        """The expanded outer rows of :attr:`Ho`, a row view, for the same
        replay."""
        return self.Ho[self.upper_len:]

    @cached_property
    def _symbol_tables(self):
        """The tables of the symbol algebra (module docstring), built on first
        use in the dtype of GF(Q): the (q^m,) symbols LZ of the leaders'
        g-coefficients, indexed by packed syndrome, Hout^T and D_o.G^T."""
        fQ = self.ext.as_field()
        Hout, D = (self.cp.Hout1, self.cp.D2) if self.side == 1 else (self.cp.Hout2, self.cp.D1)
        LG = self.field.matmul(self.table.leaders, self._HgT[:, self._m:])
        return (self.reassemble_symbols(LG).astype(fQ.dtype),
                np.ascontiguousarray(Hout.T, dtype=fQ.dtype),
                np.ascontiguousarray(D.G.T, dtype=fQ.dtype))

    def block_symbols(self, V):
        """``(ids, H, w)`` for the nonzero blocks of rows ``V``, from one
        product by [H; g]^T: their flat indices row * N + block, their
        products with H, and the GF(Q) symbols of their g-coefficients
        (module docstring), made in slices of ``chunk_rows`` coordinate
        rows."""
        blocks = V.reshape(-1, self.n)
        ids = np.flatnonzero(_nonzero_rows(blocks))
        P = self.field.matmul(blocks[ids], self._HgT)
        w = np.empty(len(ids), dtype=self.ext.as_field().dtype)
        step = chunk_rows(self.k)
        for lo in range(0, len(ids), step):
            w[lo:lo + step] = self.reassemble_symbols(P[lo:lo + step, self._m:])
        return ids, P[:, :self._m], w

    def miss_symbols(self, E):
        """The (rows, N) GF(Q) symbols z of the stage-1 misses of error rows
        ``E`` (module docstring): the symbols of the nonzero blocks less
        the leader symbols of their syndromes; z_b is zero for a good
        block."""
        ids, H, w = self.block_symbols(E)
        Z = np.zeros((len(E), self.N), dtype=w.dtype)
        LZ = self._symbol_tables[0]
        Z.reshape(-1)[ids] = self.ext.as_field().sub(w, LZ[pack(H, self.field.q)])
        return Z

    def outer_syndromes(self, Z):
        """The outer syndromes Hout.z over GF(Q) of rows ``Z`` of symbols."""
        return self.ext.as_field().matmul(Z, self._symbol_tables[1])

    def outside_dual(self, W):
        """Which rows of GF(Q) symbols ``W`` fail test (ii) of the module
        docstring, W.D_o.G^T != 0; the zero rows pass without a product."""
        bad = np.zeros(len(W), dtype=bool)
        rows = np.flatnonzero(_nonzero_rows(W))
        bad[rows] = _nonzero_rows(self.ext.as_field().matmul(W[rows], self._symbol_tables[2]))
        return bad

    def full_syndrome(self, E):
        """Syndromes e.Ho^T of error vectors ``E`` (rows, or one vector),
        formed without Ho (module docstring): the blockwise products with
        the inner check, then the coordinates of Hout.w(e)."""
        E = as_codes(self.field, E, "error entries")
        if E.shape[-1:] != (self.N * self.n,):
            raise DomainError(f"error vectors must have length {self.N * self.n}")
        rows = E.reshape(-1, self.N * self.n)
        ids, H, w = self.block_symbols(rows)
        blocks = np.zeros((len(rows) * self.N, self._m), dtype=self.field.dtype)
        blocks[ids] = H
        W = np.zeros((len(rows), self.N), dtype=w.dtype)
        W.reshape(-1)[ids] = w
        wtab = self.ext.coord_table if self.side == 1 else self.ext.dual_table
        S = np.empty((len(rows), self.syndrome_len), dtype=self.field.dtype)
        upper, lower = S[:, :self.upper_len], S[:, self.upper_len:]
        upper[...] = blocks.reshape(upper.shape)
        lower[...] = wtab[self.outer_syndromes(W)].reshape(lower.shape)
        return S.reshape(*E.shape[:-1], self.syndrome_len)

    def _leaders(self, upper):
        """``(estimates, packed)`` of upper syndromes ``(..., N*m)``: the
        blockwise coset leaders and the packed block syndromes ``(..., N)``
        that index them."""
        upper = np.asarray(upper)
        if upper.shape[-1:] != (self.upper_len,):
            raise DomainError(f"upper syndrome must have length {self.upper_len}")
        lead = upper.shape[:-1]
        packed = self.table.pack(upper.reshape(*lead, self.N, self.table.m))
        return self.table.leaders[packed].reshape(*lead, self.N * self.n), packed

    def stage1(self, upper):
        """Blockwise coset-leader estimates from upper syndromes ``(..., N*m)``."""
        return self._leaders(upper)[0]

    def outer_decode(self, sigma):
        """Bounded-distance decoding of the rows of outer syndromes ``sigma``
        over GF(Q) that are nonzero, in one :meth:`GrsCode.bd_decode_batch`
        call; returns ``(rows, X, ok, reason)``, ``rows`` their indices."""
        rows = np.flatnonzero(_nonzero_rows(sigma))
        X, ok, reason = self.grs.bd_decode_batch(sigma[rows])
        return rows, X, ok, reason

    def reassemble_symbols(self, resid):
        """Turn a lower syndrome, or g-coefficients, into GF(Q) symbols:
        their k-entry blocks are power-basis coordinates on side 1 and
        trace-dual coordinates on side 2."""
        coords = np.reshape(resid, (-1, self.k))
        if self.side == 2:
            return self.ext.from_dual_coords(coords)
        return self.ext.from_coords(coords)


def decode_batch(ctx: DecoderContext, S):
    """Decode rows of structured syndromes; returns ``(estimates, outer_ok)``.

    ``outer_ok[i]`` is False when outer bounded-distance decoding of row i
    failed, in which case ``estimates[i]`` is the stage-1 (inner leaders
    only) guess.
    """
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[1] != ctx.syndrome_len:
        raise DomainError("syndrome length does not match the parity check")
    S = as_codes(ctx.field, S, "syndrome entries")
    Ehat, packed = ctx._leaders(S[:, : ctx.upper_len])
    zeta = ctx._symbol_tables[0][packed]
    del packed  # (rows, N) int64, freed before the outer stage
    lower = ctx.reassemble_symbols(S[:, ctx.upper_len:]).reshape(len(S), ctx.grs.N - ctx.grs.K)
    rows, X, ok, _ = ctx.outer_decode(ctx.ext.as_field().sub(lower, ctx.outer_syndromes(zeta)))
    # a failed row's X is zero, and pi maps zero to zero
    Ehat[rows] = ctx.field.add(Ehat[rows], ctx.pi[X].reshape(rows.size, Ehat.shape[1]))
    outer_ok = np.ones(len(S), dtype=bool)
    outer_ok[rows] = ok
    return Ehat, outer_ok


def two_stage_decode(ctx: DecoderContext, s):
    """:func:`decode_batch` of a single syndrome; returns ``(estimate, outer_ok)``."""
    Ehat, outer_ok = decode_batch(ctx, np.reshape(s, (1, -1)))
    return Ehat[0], bool(outer_ok[0])


def success_oracle(ctx: DecoderContext, e, estimate) -> bool:
    """True iff the estimate corrects ``e`` modulo the stabilizer.

    The estimate succeeds exactly when its difference v from the channel
    error is orthogonal to the opposite-side concatenated code L_o: every
    block of v is orthogonal to the opposite inner dual's rows H, and the
    symbols w of the blocks' g-coefficients satisfy w.D_o.G^T = 0 over
    GF(Q) (module docstring).
    """
    return bool(success_oracle_rows(ctx, np.reshape(e, (1, -1)),
                                    np.reshape(estimate, (1, -1)))[0])


def success_oracle_rows(ctx: DecoderContext, E, estimates):
    """:func:`success_oracle` over matching rows: test (i) on the products
    of the nonzero blocks with H, then :meth:`DecoderContext.outside_dual`
    on the symbols of the rows that pass it."""
    E = np.asarray(E)
    estimates = np.asarray(estimates)
    length = ctx.N * ctx.n
    if E.shape != estimates.shape or E.ndim != 2 or E.shape[1] != length:
        raise DomainError(f"errors and estimates must be matching rows of "
                          f"length {length}")
    E = as_codes(ctx.field, E, "error entries")
    estimates = as_codes(ctx.field, estimates, "estimate entries")
    V = ctx.field.sub(estimates, E)
    ok = np.ones(len(E), dtype=bool)
    if not V.any():  # every estimate is exact
        return ok
    ids, H, w = ctx.block_symbols(V)
    ok[ids[_nonzero_rows(H)] // ctx.N] = False
    W = np.zeros((len(E), ctx.N), dtype=w.dtype)
    W.reshape(-1)[ids] = w
    ok[ok] = ~ctx.outside_dual(W[ok])
    return ok
