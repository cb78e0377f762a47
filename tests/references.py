"""Slow reference implementations that the tests hold library code against."""

import itertools
import math

import numpy as np

from cssconcat.channel_sim import _sample_block
from cssconcat.codes import CssPair, LinearCode, _row_profile
from cssconcat.concat import pi_table
from cssconcat.decode import success_oracle_rows
from cssconcat.errors import BadComplement, DomainError
from cssconcat.matrix import MatGF, as_codes
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


def dense_matmul(f, A, B):
    """``A·B`` over ``f`` (``A`` 1-D or 2-D) by one dense multiplication-table
    gather of every (row, k, column) product and a sum over k."""
    A = np.asarray(A)
    if A.ndim == 1:
        return dense_matmul(f, A[None], B)[0]
    return f.add_reduce(f.mul_table[A[:, :, None], np.asarray(B)[None, :, :]], axis=1)


def reduce_rows(f, A, X):
    """The residuals of the rows of ``X`` against the rref ``R`` of ``A``,
    pivot by pivot through the tables: each row that has an entry in a pivot
    column loses that entry times the pivot's row of ``R``.  A residual
    vanishes on every pivot column, differs from its row by a combination of
    the rows of ``A``, and is zero exactly when the row is in their span."""
    R, pivots, _ = MatGF(f, A).rref()
    X = as_codes(f, X).copy()
    for r, pc in enumerate(pivots):
        nz = np.flatnonzero(X[:, pc])
        if nz.size:
            X[nz] = f.sub(X[nz], f.mul(X[nz, pc][:, None], R.a[r][None, :]))
    return X


def span_rows(f, G):
    """Every combination c·G of the rows of ``G``, one row per coefficient
    vector c in ``itertools.product`` order, repeats included."""
    G = np.asarray(G, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(f.q), repeat=len(G))), dtype=np.int64)
    return f.matmul(coeffs.reshape(f.q ** len(G), len(G)), G)


def min_weight_outside(f, G, B):
    """The least Hamming weight over span(``G``) minus span(``B``), or None:
    both spans listed in full, membership by a set of rows."""
    inside = {tuple(row) for row in span_rows(f, B)}
    return min((int(np.count_nonzero(row)) for row in span_rows(f, G)
                if tuple(row) not in inside), default=None)


def symplectic_min_distance(f, G):
    """The least pair weight over span(``G``) minus its symplectic dual, or
    None: a row x of the span lies in the dual iff <x_u, g_v> - <x_v, g_u>
    vanishes for every row (g_u, g_v) of ``G``."""
    G = np.asarray(G, dtype=np.int64)
    n = G.shape[1] // 2
    X = span_rows(f, G)
    form = f.sub(f.matmul(X[:, :n], G[:, n:].T), f.matmul(X[:, n:], G[:, :n].T))
    outside = X[form.any(axis=1)]
    return min((int(w) for w in np.count_nonzero(outside[:, :n] | outside[:, n:], axis=1)),
               default=None)


def coset_generators(C1, C2, g1):
    """``(g2, basis_c1_perp)`` for a ``g1`` spanning a complement of dual(C2)
    inside C1, read off :func:`codes._row_profile`: g2 pairs with g1 and the
    rows of ``basis_c1_perp`` span dual(C1).  Raises BadComplement if ``g1``
    is not k x n or [C2.H; g1] is rank deficient."""
    _, g2, basis_c1_perp = _row_profile(C1, C2, g1)
    return g2, basis_c1_perp


def pi_rows(m, pair, ext, M):
    """:func:`concat.pi_map` of every row of a matrix over GF(q^k), gathered
    from :func:`concat.pi_table`."""
    M = np.asarray(M)
    return pi_table(m, pair, ext)[M].reshape(M.shape[0], pair.n * M.shape[1])


def random_css_pair(rng, field, n, k):
    """A random CSS pair of length n with k logical dims: a random full-rank
    C1, a random subspace of it for dual(C2), and the paired generators."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    for _ in range(1000):
        k1 = int(rng.integers(k, n + 1))
        k2 = n + k - k1
        if not 0 <= k2 <= n:
            continue
        G1 = rng.integers(0, field.q, size=(k1, n))
        m1 = MatGF(field, G1)
        if m1.rank != k1:
            continue
        C1 = LinearCode(field, m1.rref()[0].a[:k1])
        # dual(C2): a (k1 - k)-dim subspace of C1
        r = k1 - k
        coeff = rng.integers(0, field.q, size=(r, k1))
        B = field.matmul(np.asarray(coeff, dtype=np.int64), C1.G)
        if r and MatGF(field, B).rank != r:
            continue
        C2 = LinearCode.from_parity_check(field, B) if r else \
            LinearCode.full_space(field, n)
        try:
            return CssPair.build(C1, C2)
        except BadComplement:
            continue
    raise RuntimeError("failed to sample a CSS pair")


# the reason codes of bd_decode_batch, indices into MESSAGES
_ZERO_RADIUS, _DEGREE, _REPEATED_ROOT, _ROOT_COUNT, _MISMATCH = range(1, len(MESSAGES))


def _berlekamp_massey(f, S, t):
    """Lockstep Berlekamp-Massey over the rows of ``S``, all R steps, with
    the connection polynomials cut to t + 1 coefficients: ``(lam, L)``."""
    rows, R = S.shape
    lam = np.zeros((rows, t + 1), dtype=f.dtype)
    lam[:, 0] = 1
    B = np.zeros_like(lam)
    B[:, 1] = 1
    b = np.ones(rows, dtype=f.dtype)
    L = np.zeros(rows, dtype=np.int64)
    for n in range(R):
        w = min(n, t) + 1
        d = f.add_reduce(f.mul(lam[:, :w], S[:, n::-1][:, :w]), axis=1)
        grow = (d != 0) & (2 * L <= n)
        old = lam
        lam = f.sub(lam, f.mul(f.mul(d, f.inv_table[b])[:, None], B))
        shifted = np.where(grow[:, None], old[:, :-1], B[:, :-1])
        B = np.zeros_like(B)
        B[:, 1:] = shifted
        b = np.where(grow, d, b)
        L = np.where(grow, n + 1 - L, L)
    return lam, L


def bd_decode_batch(code, S):
    """The lockstep bounded-distance decoder with the Chien search as a
    dense gather against all t + 1 powers and the re-encoded syndrome as a
    t-step sum over the roots: ``GrsCode.bd_decode_batch`` must return the
    same ``(E, ok, reason)``.  Reads the code's ``_chien_tables``."""
    f = code.ext.as_field()
    S = as_codes(f, S, "syndrome entries")
    E = np.zeros((len(S), code.N), dtype=f.dtype)
    reason = np.zeros(len(S), dtype=np.int8)
    rows = np.flatnonzero(S.any(axis=1))
    t = code.t
    if t == 0:
        reason[rows] = _ZERO_RADIUS
        return E, reason == 0, reason
    lam, L = _berlekamp_massey(f, S[rows], t)
    reason[rows[L > t]] = _DEGREE
    keep = L <= t
    rows, lam, L = rows[keep], lam[keep], L[keep]
    S = S[rows]
    omega = np.zeros((rows.size, t), dtype=f.dtype)
    for i in range(t):
        omega[:, i:] = f.add(omega[:, i:], f.mul(lam[:, i:i + 1], S[:, :t - i]))
    dlam = f.mul(lam[:, 1:], np.arange(1, t + 1) % f.p)
    P, c, Ht = code._chien_tables()
    roots = dense_matmul(f, lam, P) == 0
    pos = np.argsort(~roots, axis=1, kind="stable")[:, :t]
    at = np.take_along_axis(roots, pos, axis=1)
    x = P[1][pos]
    num = den = np.zeros(pos.shape, dtype=f.dtype)
    for i in reversed(range(t)):
        num = f.add(f.mul(num, x), omega[:, i, None])
        den = f.add(f.mul(den, x), dlam[:, i, None])
    vals = np.where(at, f.mul(f.mul(num, c[pos]), f.inv_table[den]), 0)
    why = np.select([(at & (den == 0)).any(axis=1), roots.sum(axis=1) != L],
                    [_REPEATED_ROOT, _ROOT_COUNT], 0).astype(np.int8)
    resyn = np.zeros_like(S)
    for k in range(t):
        resyn = f.add(resyn, f.mul(vals[:, k, None], Ht[pos[:, k]]))
    why[(why == 0) & (resyn != S).any(axis=1)] = _MISMATCH
    vals[why != 0] = 0
    E[rows[:, None], pos] = vals
    reason[rows] = why
    return E, reason == 0, reason


def wide_arrays(cp):
    """The names of the arrays the pair ``cp`` keeps with an axis nN long,
    such as a structured check Ho_i: a lean pair keeps none."""
    return [name for name, v in vars(cp).items()
            if isinstance(v, np.ndarray) and cp.block_length in v.shape]


def dense_full_syndrome(ctx, E, Ho=None):
    """``E.Ho^T`` for the side's structured check ``Ho``, by default
    ``ctx.cp.parity_check(ctx.side)``: the reference for
    ``DecoderContext.full_syndrome``."""
    if Ho is None:
        Ho = ctx.cp.parity_check(ctx.side)
    return ctx.field.matmul(as_codes(ctx.field, E, "error entries"), Ho.T)


def dense_mc_error_rate(ctx, channel, trials, seed, chunk=2048):
    """``mc_error_rate`` through the dense decoder pipeline: the syndromes
    ``E.Ho^T`` (:func:`dense_full_syndrome`), stage 1, bounded-distance
    decoding of the nN-column residual ``S_low - Ehat.Gp^T``, Gp the lower
    rows of the same ``Ho``, and the block-level success oracle, chunk by
    chunk over the same trials.

    Returns ``(failures, outer_decode_failures, inner_block_rate,
    miscorrections, outer_failures_by_reason)``; a miscorrection is a row
    with a nonzero residual whose outer decoding succeeds but which fails.
    """
    f = ctx.field
    Ho = ctx.cp.parity_check(ctx.side)
    Gp = Ho[ctx.upper_len:]
    failures = outer_fail = bad_blocks = miscorrections = 0
    reasons = np.zeros(len(MESSAGES), dtype=np.int64)
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        E = _sample_block(channel, seed, start, count, ctx.N * ctx.n)
        S = dense_full_syndrome(ctx, E, Ho)
        Ehat = ctx.stage1(S[:, : ctx.upper_len])
        bad_blocks += int(np.count_nonzero(ctx.block_symbols(f.sub(E, Ehat))[2]))
        resid = f.sub(S[:, ctx.upper_len:], f.matmul(Ehat, Gp.T))
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
