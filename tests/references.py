"""Slow reference implementations that the tests hold library code against."""

import math

import numpy as np

from cssconcat.channel_sim import _sample_block
from cssconcat.decode import success_oracle_rows
from cssconcat.errors import DomainError
from cssconcat.matrix import MatGF
from cssconcat.outer_grs import MESSAGES


def inverse(f, A):
    """The inverse of the square matrix ``A`` over ``f`` from the rref of
    ``[A | I]``, or None when ``A`` is singular."""
    A = np.asarray(A, dtype=np.int64)
    n = len(A)
    R, pivots, _ = MatGF(f, np.concatenate([A, np.eye(n, dtype=np.int64)], axis=1)).rref()
    if tuple(pivots[:n]) != tuple(range(n)):
        return None
    return R.a[:, n:]


def dense_mc_error_rate(ctx, channel, trials, seed, chunk=2048):
    """``mc_error_rate`` through the dense decoder pipeline: the full
    syndrome, stage 1, bounded-distance decoding of the nN-column residual
    ``S_low - Ehat.Gp^T`` and the block-level success oracle, chunk by
    chunk over the same trials.

    Returns ``(failures, outer_decode_failures, inner_block_rate,
    miscorrections, outer_failures_by_reason)``; a miscorrection is a row
    with a nonzero residual whose outer decoding succeeds but which fails.
    """
    f = ctx.field
    failures = outer_fail = bad_blocks = miscorrections = 0
    reasons = np.zeros(len(MESSAGES), dtype=np.int64)
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        E = _sample_block(channel, seed, start, count, ctx.N * ctx.n)
        S = ctx.full_syndrome(E)
        Ehat = ctx.stage1(S[:, : ctx.upper_len])
        bad_blocks += int(np.count_nonzero(ctx.block_symbols(f.sub(E, Ehat))[2]))
        resid = f.sub(S[:, ctx.upper_len:], f.matmul(Ehat, ctx.Gp.T))
        decoded = np.flatnonzero(resid.any(axis=1))
        symbols = ctx.reassemble_symbols(resid[decoded])
        X, ok, reason = ctx.grs.bd_decode_batch(
            symbols.reshape(decoded.size, ctx.grs.N - ctx.grs.K))
        Ehat[decoded] = f.add(Ehat[decoded], ctx.pi[X].reshape(decoded.size, Ehat.shape[1]))
        good = success_oracle_rows(ctx, E, Ehat)
        failures += int((~good).sum())
        outer_fail += int((~ok).sum())
        miscorrections += int((ok & ~good[decoded]).sum())
        reasons += np.bincount(reason[~ok], minlength=len(MESSAGES))
    assert reasons.sum() == outer_fail and reasons[0] == 0
    return (failures, outer_fail, bad_blocks / (trials * ctx.N), miscorrections,
            tuple(int(r) for r in reasons))


def simplex_grid_exponent(channel, r, step=1e-3):
    """The random-coding exponent by brute-force minimization over a simplex
    grid of distributions Q (q <= 3): the reference for
    ``random_coding_exponent``."""
    W = channel.probs
    q = channel.q
    if q > 3:
        raise DomainError("simplex grid oracle is for q <= 3")
    m = int(round(1.0 / step))
    if q == 2:
        i = np.arange(m + 1)
        Q = np.stack([i, m - i], axis=1) / m
    else:
        i, j = np.meshgrid(np.arange(m + 1), np.arange(m + 1), indexing="ij")
        keep = (i + j) <= m
        Q = np.stack([i[keep], j[keep], m - i[keep] - j[keep]], axis=1) / m
    lnq = math.log(q)
    safeQ = np.where(Q > 0, Q, 1.0)
    safeW = np.where(W > 0, W, 1.0)
    div = (np.where(Q > 0, Q * np.log(safeQ / safeW), 0.0)).sum(axis=1) / lnq
    div[np.any((Q > 0) & (W[None, :] <= 0), axis=1)] = np.inf
    H = -(np.where(Q > 0, Q * np.log(safeQ), 0.0)).sum(axis=1) / lnq
    vals = div + np.maximum(0.0, 1.0 - r - H)
    return max(0.0, float(vals.min()))
