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
"""

from __future__ import annotations

import numpy as np

from .codes import TABLE_CAP, CosetLeaderTable
from .concat import ConcatPair, pi_map
from .errors import DecodeFailure, DomainError
from .matrix import MatGF


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
        self.grs = grs
        self.N = cp.N
        self.n = cp.n
        self.k = cp.k
        self.upper_len = self.N * self.table.m
        # side 2 reassembles symbols from trace-dual coordinates: row j of
        # this k x k base-field matrix holds the coordinates of dual basis
        # element j
        self.dual_coords = None if side == 1 else cp.ext.coords(cp.ext.dual_basis())
        other = cp.L2 if side == 1 else cp.L1
        self._other_dual = MatGF(self.field, other.H)

    def full_syndrome(self, e):
        """Syndrome of an error vector against this side's structured check."""
        e = np.asarray(e, dtype=np.int64).reshape(-1)
        return self.field.matmul(e, self.Ho.T)

    def stage1(self, upper):
        """Blockwise coset-leader estimate from the upper syndrome part."""
        blocks = np.asarray(upper, dtype=np.int64).reshape(self.N, self.table.m)
        packed = self.table.pack(blocks)
        return self.table.leaders[packed].reshape(-1)

    def reassemble_symbols(self, resid):
        """Turn the residual lower syndrome into outer GRS syndrome symbols."""
        coords = np.asarray(resid, dtype=np.int64).reshape(-1, self.k)
        if self.side == 2:
            coords = self.field.matmul(coords, self.dual_coords)
        return self.ext.from_coords(coords)


def full_syndrome(ctx: DecoderContext, e):
    return ctx.full_syndrome(e)


def two_stage_decode(ctx: DecoderContext, s):
    """Decode a structured syndrome; returns ``(estimate, outer_ok)``.

    ``outer_ok`` is False when outer bounded-distance decoding failed, in
    which case the estimate is the stage-1 (inner leaders only) guess.
    """
    s = np.asarray(s, dtype=np.int64).reshape(-1)
    if s.shape[0] != ctx.Ho.shape[0]:
        raise DomainError("syndrome length does not match the parity check")
    upper, lower = s[: ctx.upper_len], s[ctx.upper_len:]
    ehat = ctx.stage1(upper)
    resid = ctx.field.sub(lower, ctx.field.matmul(ehat, ctx.Gp.T))
    symbols = ctx.reassemble_symbols(resid)
    try:
        x = ctx.grs.bd_decode(symbols)
    except DecodeFailure:
        return ehat, False
    if x.any():
        ehat = ctx.field.add(ehat, pi_map(ctx.side, ctx.cp.inner, ctx.ext, x))
    return ehat, True


def success_oracle(ctx: DecoderContext, e, estimate) -> bool:
    """True iff the estimate corrects ``e`` modulo the stabilizer.

    The estimate succeeds exactly when its difference from the channel error
    is orthogonal to the opposite-side concatenated code.
    """
    diff = ctx.field.sub(np.asarray(estimate, dtype=np.int64),
                         np.asarray(e, dtype=np.int64))
    return bool(ctx._other_dual.span_contains(diff))


def success_oracle_rows(ctx: DecoderContext, E, estimates):
    """Vectorized :func:`success_oracle` over matching rows."""
    diff = ctx.field.sub(np.asarray(estimates, dtype=np.int64),
                         np.asarray(E, dtype=np.int64))
    return ctx._other_dual.span_contains_rows(diff)
