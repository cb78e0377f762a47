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

:func:`decode_batch` is the one decoder: :meth:`DecoderContext.stage1` on all
rows, then :meth:`DecoderContext.outer_stage` on those with a nonzero residual,
which hands them to :meth:`GrsCode.bd_decode_batch` in one call.  The scalar
:func:`two_stage_decode` is a one-row batch.

Block-level success test.  On side 1 the opposite code is L2 = pi_2(D2) +
blockwise dual(C1), generated by N diagonal copies of C1.H and by the rows
PI2[alpha^l D2.G]; on side 2 it is L1, generated by copies of C2.H and the
rows PI1[alpha^l D1.G].  Write [H; g] for [C1.H; g2] on side 1 and
[C2.H; g1] on side 2 (concat._block_factor of the other side), and wtab for
the extension's dual_table on side 1 and its coord_table on side 2, so that
PI_o[x] = wtab[x] g for the opposite table PI_o, as pi_map builds it.  A
difference v = estimate - e is then orthogonal to L_o iff

  (i) every block v_b is orthogonal to the rows of H, and
  (ii) c.Y^T = 0, with c_b = v_b.g^T the g-coefficients of the blocks and Y
       the (k K_o, k N) matrix wtab[alpha^l D_o.G],

since <v_b, wtab[x] g> = wtab[x].c_b.  One product of the nonzero blocks of
v by [H; g]^T gives both (i) and c; only rows that pass (i) with some
c_b != 0 meet Y, in one GF(q) product.  Y is gathered on the first such row.
The same product scores stage 1.  A stage-1 miss e_b - leader_b has the
syndrome zero, so it lies in the side's inner code C = dual(C_o) + span(g'),
g' the side's own coset generators; by (P) of the concat docstring,
g'.g^T = I and dual(C_o).g^T = 0, so c_b is its g'-coefficient, and the
block is bad, outside dual(C_o), iff c_b != 0.  Neither test eliminates.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .codes import TABLE_CAP, CosetLeaderTable
from .concat import ConcatPair, _block_factor, _subfield_rows
from .errors import DomainError
from .matrix import as_codes


def _nonzero_rows(A):
    """Which rows of the 2-D ``A`` hold a nonzero entry, reduced over a
    transposed copy: numpy ORs its rows whole, where ``A.any(axis=1)`` pays
    a step per row of a few entries."""
    return np.ascontiguousarray(A.T).any(axis=0)


class DecoderContext:
    """Precomputed tables for decoding one side of a concatenated pair.

    Side 1 decodes errors checked by the parity matrix of L1 (inner leaders
    for C1, outer decoding of D1); side 2 is symmetric.
    """

    def __init__(self, cp: ConcatPair, side: int = 1, cap: int = TABLE_CAP):
        if side not in (1, 2):
            raise DomainError("side must be 1 or 2")
        grs = cp.grs1 if side == 1 else cp.grs2
        if grs is None:
            raise DomainError("outer code on this side has no bounded-distance decoder")
        self.cp = cp
        self.side = side
        self.field = cp.inner.field
        self.ext = cp.ext
        self.inner_code = cp.inner.C1 if side == 1 else cp.inner.C2
        self.table = CosetLeaderTable(self.inner_code, cap=cap)
        self.Ho = cp.Ho1 if side == 1 else cp.Ho2
        self.Gp = cp.Gp1 if side == 1 else cp.Gp2
        self.pi = cp.PI1 if side == 1 else cp.PI2  # row x is pi_side(x)
        self.grs = grs
        self.N = cp.N
        self.n = cp.n
        self.k = cp.k
        self.upper_len = self.N * self.table.m
        # [H; g]^T of the block-level success test (module docstring)
        self._m, self._HgT = _block_factor(cp.inner, 3 - side)

    @cached_property
    def Y(self):
        """The (k K_o, k N) matrix wtab[alpha^l D_o.G] of the block-level
        success test, in the field's dtype, gathered on first use."""
        ext, D = self.ext, self.cp.D2 if self.side == 1 else self.cp.D1
        wtab = (ext.dual_table if self.side == 1 else ext.coord_table).astype(self.field.dtype)
        return np.take(wtab, _subfield_rows(ext, D.G), axis=0).reshape(-1, self.N * self.k)

    def block_split(self, V):
        """The nonzero blocks of rows ``V`` of differences, split by one
        product with [H; g]^T: ``(ids, outside, c)``, with ``ids`` the flat
        indices row * N + block of those blocks, ``outside`` whether each
        fails (i) of the module docstring, and ``c`` their g-coefficients."""
        blocks = V.reshape(-1, self.n)
        ids = np.flatnonzero(_nonzero_rows(blocks))
        P = self.field.matmul(blocks[ids], self._HgT)
        return ids, _nonzero_rows(P[:, :self._m]), P[:, self._m:]

    def full_syndrome(self, E):
        """Syndromes of error vectors (rows) against this side's structured check."""
        return self.field.matmul(E, self.Ho.T)

    def stage1(self, upper):
        """Blockwise coset-leader estimates from upper syndromes ``(..., N*m)``."""
        upper = np.asarray(upper)
        if upper.shape[-1:] != (self.upper_len,):
            raise DomainError(f"upper syndrome must have length {self.upper_len}")
        lead = upper.shape[:-1]
        packed = self.table.pack(upper.reshape(*lead, self.N, self.table.m))
        return self.table.leaders[packed].reshape(*lead, self.N * self.n)

    def outer_stage(self, S, Ehat):
        """Outer bounded-distance stage, in place on the stage-1 estimates
        ``Ehat`` of the full syndromes ``S``; returns the per-row ``outer_ok``
        mask.  The rows with a nonzero residual go to the GRS decoder in one
        batch; rows whose outer decoding fails keep their stage-1 estimate."""
        f = self.field
        resid = f.sub(S[:, self.upper_len:], f.matmul(Ehat, self.Gp.T))
        rows = np.flatnonzero(resid.any(axis=1))
        symbols = self.reassemble_symbols(resid[rows])
        symbols = symbols.reshape(rows.size, resid.shape[1] // self.k)
        X, ok, _ = self.grs.bd_decode_batch(symbols)
        # a failed row's X is zero, and pi maps zero to zero
        Ehat[rows] = f.add(Ehat[rows], self.pi[X].reshape(rows.size, Ehat.shape[1]))
        outer_ok = np.ones(len(S), dtype=bool)
        outer_ok[rows] = ok
        return outer_ok

    def reassemble_symbols(self, resid):
        """Turn the residual lower syndrome into outer GRS syndrome symbols:
        its k-entry blocks are power-basis coordinates on side 1 and
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
    if S.ndim != 2 or S.shape[1] != ctx.Ho.shape[0]:
        raise DomainError("syndrome length does not match the parity check")
    S = as_codes(ctx.field, S, "syndrome entries")
    Ehat = ctx.stage1(S[:, : ctx.upper_len])
    return Ehat, ctx.outer_stage(S, Ehat)


def two_stage_decode(ctx: DecoderContext, s):
    """:func:`decode_batch` of a single syndrome; returns ``(estimate, outer_ok)``."""
    Ehat, outer_ok = decode_batch(ctx, np.reshape(s, (1, -1)))
    return Ehat[0], bool(outer_ok[0])


def success_oracle(ctx: DecoderContext, e, estimate) -> bool:
    """True iff the estimate corrects ``e`` modulo the stabilizer.

    The estimate succeeds exactly when its difference v from the channel
    error is orthogonal to the opposite-side concatenated code L_o: every
    block of v is orthogonal to the opposite inner dual's rows H, and the
    g-coefficients c_b = v_b.g^T satisfy c.Y^T = 0 (module docstring).
    """
    return bool(success_oracle_rows(ctx, np.reshape(e, (1, -1)),
                                    np.reshape(estimate, (1, -1)))[0])


def success_oracle_rows(ctx: DecoderContext, E, estimates):
    """:func:`success_oracle` over matching rows, by one product of the
    nonzero blocks and one product with :attr:`DecoderContext.Y` of the rows
    that need it."""
    E = np.asarray(E)
    estimates = np.asarray(estimates)
    if E.shape != estimates.shape or E.ndim != 2 or E.shape[1] != ctx.Ho.shape[1]:
        raise DomainError(f"errors and estimates must be matching rows of "
                          f"length {ctx.Ho.shape[1]}")
    E = as_codes(ctx.field, E, "error entries")
    estimates = as_codes(ctx.field, estimates, "estimate entries")
    f = ctx.field
    V = f.sub(estimates, E)
    ok = np.ones(len(E), dtype=bool)
    if not V.any():  # every estimate is exact
        return ok
    ids, outside, c = ctx.block_split(V)
    ok[ids[outside] // ctx.N] = False
    C = np.zeros((len(E), ctx.N * ctx.k), dtype=f.dtype)
    C.reshape(-1, ctx.k)[ids] = c
    rows = np.flatnonzero(ok & _nonzero_rows(C))
    if rows.size:
        ok[rows] = ~f.matmul(ctx.Y, C[rows].T).any(axis=0)
    return ok
