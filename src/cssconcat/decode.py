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

Block-level success test.  Sides are as in the :mod:`concat` docstring
("Sides"): s is the context's side, o the other, and the context reads the
:class:`concat.Side` record of s.  The opposite code L_o = pi_o(D_o) +
blockwise dual(C_s) is generated by N diagonal copies of C_s.H and by the
rows PI_o[alpha^l D_o.G].  Write [H; g] = [C_s.H; g_o], the transpose of the
record's HgT, and w_b = from_coords_s(c_b) for the GF(Q) symbol whose
coordinates are the g-coefficients c_b = v_b.g^T of block b.  A difference
v = estimate - e is then orthogonal to L_o iff

  (i) every block v_b is orthogonal to the rows of H, and
  (ii) w.D_o.G^T = 0 over GF(Q).

As PI_o[x] = coords_o[x] g, <v_b, PI_o[x]> = coords_o[x].c_b = Tr(x w_b):
one side's coordinates are power-basis, the other's trace-dual.  Against
the row PI_o[alpha^l D_o.G[r]], v gives Tr(alpha^l (w.D_o.G^T)_r), which
vanishes for every l iff (w.D_o.G^T)_r = 0, as the trace form is
nondegenerate.  One product of the nonzero blocks of v by [H; g]^T gives
(i) and w (:meth:`DecoderContext.block_symbols`); only rows that pass (i)
with some w_b != 0 meet D_o.G^T, in one GF(Q) product (D_o's
:meth:`GrsCode.dual_syndrome`, in :meth:`DecoderContext.outside_dual`).  The
same product scores stage 1.  A stage-1 miss e_b - leader_b has the
syndrome zero, so it lies in C_s = dual(C_o) + span(g_s); by (P) of the
concat docstring, g_s.g^T = I and dual(C_o).g^T = 0, so c_b is its
g_s-coefficient, and the block is bad, outside dual(C_o), iff c_b != 0.
Neither test eliminates.

Outer stage.  It needs (G): block b of row j k + r of Gp is PI_o[y], y =
Hout[j, b] scales_s[r], with no dual(C_s) part, as
:meth:`concat.ConcatPair.parity_check` gathers it from a table that
:func:`concat.concatenate` certifies on every row ((B') there).  Then
<u_b, PI_o[y]> = Tr(y w(u)_b), w(u) the symbols w_b of the blocks of u, so
block j of u.Gp^T holds coords_s of (Hout.w(u))_j, which
:meth:`DecoderContext.reassemble_symbols` reads.  The decoder reads neither
Gp nor Ho: its lengths are N m + k (N - K) for a syndrome and N n for an
error, and :meth:`DecoderContext.full_syndrome` forms e.Ho^T as the
blockwise products e_b.C_s.H^T followed by those coordinates of Hout.w(e).
The outer syndrome of an error e with stage-1 estimate Ehat is then

  sigma = Hout.w(e - Ehat) = reassemble(S_low) - Hout.zeta,

S_low = e.Gp^T and zeta_b = w(Ehat)_b the symbol of block b's leader, from
the (q^m,) table LZ of leader symbols: :func:`decode_batch` forms no
product nN columns wide, and Monte-Carlo, which knows e, forms sigma as
Hout.z, z = w(e) - zeta (below).  Both form Hout.zeta or Hout.z by the side
code's :meth:`GrsCode.syndrome` and hand every row of sigma to its
:meth:`GrsCode.bd_decode_batch`, which returns X = 0 and ok for a zero row;
a decoded word X adds PI_s[X] to the estimate.  A context keeps no
outer-code array, and a decode builds no G^T.

Monte-Carlo symbols.  :meth:`DecoderContext.score`, which
:func:`channel_sim.mc_error_rate` sums, is the one implementation of a
sampled trial's outcome.  It specialises the test to the decoder's
estimates, which are stage-1 leaders plus PI_s[X], X the outer decoder's
word (zero where it fails or sigma is zero).  Block b of
v = estimate - e is then PI_s[X_b] - u_b, u_b = e_b - leader_b the
stage-1 miss.  Both terms lie in C_s: PI_s[x] is a combination of g_s, and
u_b has the syndrome zero.  So (i) holds on every Monte-Carlo row, and
w = X - z, z_b the symbol of the miss (:meth:`DecoderContext.miss_symbols`):
the symbol of e_b's g-coefficients less that of the leader of its stage-1
syndrome, both maps to symbols being GF(q)-linear, and the outer syndrome
is Hout.z, as above.  A row whose outer decoding fails has X = 0 and
Hout.z != 0, so z lies outside D_s, which contains dual(D_o), and the
row fails without test (ii).  No array nN columns wide is formed past the
sampled errors.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .codes import TABLE_CAP
from .concat import ConcatPair, _facing
from .errors import DomainError
from .matrix import as_codes, chunk_rows, pack


def _nonzero_rows(A):
    """Which rows of the 2-D ``A`` hold a nonzero entry, reduced over a
    transposed copy: numpy ORs its rows whole, where ``A.any(axis=1)`` pays
    a step per row of a few entries."""
    return np.ascontiguousarray(A.T).any(axis=0)


class DecoderContext:
    """Precomputed tables for decoding one side of a concatenated pair.

    Side s decodes errors checked by the parity matrix of L_s: inner leaders
    for C_s, outer decoding of D_s, with ``cp.sides[s - 1]`` as
    :attr:`record` (:mod:`concat` docstring, "Sides").  The pair must hold
    (G) of the module docstring, Gp_s = PI_o[y_s], as every pair that
    :func:`concat.concatenate` returns does.  The leader table is the inner
    code's own (:meth:`codes.LinearCode.leader_table`), so the contexts of
    both sides share it when the pair has one inner code for both, as
    ``bvector_pair(F, b, b)`` does; ``cap`` bounds its q^m entries.
    """

    def __init__(self, cp: ConcatPair, side: int = 1, cap: int = TABLE_CAP):
        self.record = _facing(cp.sides, side)[0]
        self.cp = cp
        self.side = side
        self.field = cp.inner.field
        self.ext = cp.ext
        self.table = self.record.code.leader_table(cap)
        self.grs, self._opposite = _facing(cp.outer, side)
        self.N = cp.N
        self.n = cp.n
        self.k = cp.k
        self.upper_len = self.N * self.table.m
        self.syndrome_len = self.upper_len + self.k * (self.N - self.grs.K)

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
    def _leader_symbols(self):
        """The GF(Q) symbols LZ of the leaders, by packed syndrome, built on first use."""
        LG = self.field.matmul(self.table.leaders, self.record.HgT[:, self.record.m:])
        return self.reassemble_symbols(LG).astype(self.ext.as_field().dtype)

    def block_symbols(self, V):
        """``(ids, H, W)`` for rows ``V`` of codes (checked), from one product
        of their nonzero blocks by [H; g]^T: the blocks' flat indices row * N
        + block, their products with H, and the (rows, N) GF(Q) symbols W of
        all blocks' g-coefficients (module docstring), in ``chunk_rows`` slices."""
        blocks = as_codes(self.field, V, "error entries").reshape(-1, self.n)
        ids = np.flatnonzero(_nonzero_rows(blocks))
        P = self.field.matmul(blocks[ids], self.record.HgT)
        W = np.zeros(len(blocks), dtype=self.ext.as_field().dtype)
        step = chunk_rows(self.k)
        for lo in range(0, len(ids), step):
            W[ids[lo:lo + step]] = self.reassemble_symbols(P[lo:lo + step, self.record.m:])
        return ids, P[:, :self.record.m], W.reshape(-1, self.N)

    def miss_symbols(self, E):
        """The (rows, N) GF(Q) symbols z of the stage-1 misses of error rows
        ``E`` (module docstring): their :meth:`block_symbols` less the leader
        symbols of the nonzero blocks' syndromes; z_b is zero for a good
        block."""
        ids, H, Z = self.block_symbols(E)
        z = Z.reshape(-1)
        z[ids] = self.ext.as_field().sub(z[ids], self._leader_symbols[pack(H, self.field.q)])
        return Z

    def outside_dual(self, W):
        """Which rows of GF(Q) symbols ``W`` fail test (ii) of the module
        docstring, W.D_o.G^T != 0; the zero rows pass without a product."""
        bad = np.zeros(len(W), dtype=bool)
        rows = np.flatnonzero(_nonzero_rows(W))
        if rows.size:  # so that no G^T is built for zero rows
            bad[rows] = _nonzero_rows(self._opposite.dual_syndrome(W[rows]))
        return bad

    def score(self, Z):
        """``(failed, reason, miscorrected, bad)`` for each row of miss
        symbols ``Z`` (rows, N), as :meth:`miss_symbols` makes them: whether
        the two-stage decoder fails the row's trial (module docstring,
        "Monte-Carlo symbols"), the :meth:`GrsCode.bd_decode_batch` reason
        (int8, indexing ``outer_grs.MESSAGES``; outer decoding succeeded iff
        it is 0), whether a nonzero outer syndrome decoded but the trial
        fails, and the number of nonzero z_b.  Zero rows are skipped."""
        failed, miscorrected = np.zeros((2, len(Z)), dtype=bool)
        reason = np.zeros(len(Z), dtype=np.int8)
        bad = np.count_nonzero(Z, axis=1)
        rows = bad > 0
        Z = Z[rows]
        sigma = self.grs.syndrome(Z)
        X, ok, reason[rows] = self.grs.bd_decode_batch(sigma)
        W = self.ext.as_field().sub(Z, X)  # X is zero where decoding fails
        W[~ok] = 0  # Hout.z != 0 puts z outside dual(D_o): no test (ii)
        failed[rows] = self.outside_dual(W) | ~ok
        miscorrected[rows] = failed[rows] & ok & _nonzero_rows(sigma)
        return failed, reason, miscorrected, bad

    def full_syndrome(self, E):
        """Syndromes e.Ho^T of error vectors ``E`` (rows, or one vector),
        formed without Ho (module docstring): the blockwise products with
        the inner check, then the coordinates of Hout.w(e)."""
        E = np.asarray(E)  # its codes are checked by block_symbols
        if E.shape[-1:] != (self.N * self.n,):
            raise DomainError(f"error vectors must have length {self.N * self.n}")
        rows = E.reshape(-1, self.N * self.n)
        ids, H, W = self.block_symbols(rows)
        blocks = np.zeros((len(rows) * self.N, self.record.m), dtype=self.field.dtype)
        blocks[ids] = H
        S = np.empty((len(rows), self.syndrome_len), dtype=self.field.dtype)
        upper, lower = S[:, :self.upper_len], S[:, self.upper_len:]
        upper[...] = blocks.reshape(upper.shape)
        lower[...] = self.record.coords[self.grs.syndrome(W)].reshape(lower.shape)
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

    def reassemble_symbols(self, resid):
        """Turn a lower syndrome, or g-coefficients, into GF(Q) symbols:
        their k-entry blocks are coordinates in the record's convention."""
        return self.record.from_coords(np.reshape(resid, (-1, self.k)))


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
    zeta = ctx._leader_symbols[packed]
    del packed  # (rows, N) int64, freed before the outer stage
    lower = ctx.reassemble_symbols(S[:, ctx.upper_len:]).reshape(len(S), ctx.grs.N - ctx.grs.K)
    X, outer_ok, _ = ctx.grs.bd_decode_batch(ctx.ext.as_field().sub(lower, ctx.grs.syndrome(zeta)))
    # X is zero on a failed row and on a zero syndrome, and pi maps zero to zero
    return ctx.field.add(Ehat, ctx.record.PI[X].reshape(Ehat.shape)), outer_ok


def two_stage_decode(ctx: DecoderContext, s):
    """:func:`decode_batch` of a single syndrome; returns ``(estimate, outer_ok)``."""
    Ehat, outer_ok = decode_batch(ctx, np.reshape(s, (1, -1)))
    return Ehat[0], bool(outer_ok[0])


def success_oracle(ctx: DecoderContext, e, estimate) -> bool:
    """True iff the estimate corrects ``e`` modulo the stabilizer: its
    difference from ``e`` is orthogonal to the opposite concatenated code
    L_o, by tests (i) and (ii) of the module docstring."""
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
    ids, H, W = ctx.block_symbols(V)
    ok[ids[_nonzero_rows(H)] // ctx.N] = False
    ok[ok] = ~ctx.outside_dual(W[ok])
    return ok
