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
"""

from __future__ import annotations

import numpy as np

from .codes import TABLE_CAP, CosetLeaderTable
from .concat import ConcatPair
from .errors import DomainError
from .matrix import MatGF, as_codes


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
        # side 2 reassembles symbols from trace-dual coordinates: row j of
        # this k x k base-field matrix holds the coordinates of dual basis
        # element j
        self.dual_coords = (None if side == 1 else
                            cp.ext.coords(cp.ext.dual_basis()).astype(self.field.dtype))
        # the row space of Ho_other is dual(L_other), certified by concatenate
        self._other_dual = MatGF(self.field, cp.Ho2 if side == 1 else cp.Ho1)

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
        """Turn the residual lower syndrome into outer GRS syndrome symbols."""
        coords = np.reshape(resid, (-1, self.k))
        if self.side == 2:
            coords = self.field.matmul(coords, self.dual_coords)
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

    The estimate succeeds exactly when its difference from the channel error
    is orthogonal to the opposite-side concatenated code.
    """
    return bool(success_oracle_rows(ctx, np.reshape(e, (1, -1)),
                                    np.reshape(estimate, (1, -1)))[0])


def success_oracle_rows(ctx: DecoderContext, E, estimates):
    """:func:`success_oracle` over matching rows."""
    E = np.asarray(E)
    estimates = np.asarray(estimates)
    if E.shape != estimates.shape or E.shape[-1:] != (ctx.Ho.shape[1],):
        raise DomainError(f"errors and estimates must be matching rows of "
                          f"length {ctx.Ho.shape[1]}")
    E = as_codes(ctx.field, E, "error entries")
    estimates = as_codes(ctx.field, estimates, "estimate entries")
    # the difference of checked codes is a code: no second range check
    return ctx._other_dual._span_mask(ctx.field.sub(estimates, E))
