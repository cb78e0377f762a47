"""Slow reference implementations that the tests hold library code against."""

import itertools
import math

import numpy as np

from cssconcat.channel_sim import _sample_block
from cssconcat.codes import ENUM_CAP, CssPair, LinearCode, _row_profile, min_weight_excluding
from cssconcat.concat import _concatenated_rows, _facing, _sides, verify_duality
from cssconcat.decode import success_oracle_rows
from cssconcat.enlarge import enlargement_distance_floor, steane_enlarge
from cssconcat.errors import BadComplement, DomainError, NotOrthogonal
from cssconcat.galois import code_dtype
from cssconcat.matrix import MatGF, as_codes, chunk_rows, digits, pack
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
    """g2 for a ``g1`` spanning a complement of dual(C2) inside C1, read off
    :func:`codes._row_profile`: g2 pairs with g1.  Raises BadComplement if
    ``g1`` is not k x n or [C2.H; g1] is rank deficient."""
    return _row_profile(C1, C2, g1)[1]


def merge_sort_leader_table(C, cap):
    """``(leaders, weights)`` of ``CosetLeaderTable(C, cap)`` as the table
    was built before its patterns came in lexicographic order: per chunk of
    supports (about ``cap`` entries), the candidates and the leaders of
    weight w found so far for their syndromes are sorted by syndrome, then
    lexicographically (a lexsort on n + 1 keys), and the first of each is
    kept."""
    f, H = C.field, C.H
    m, n = H.shape
    leaders = np.zeros((f.q ** m, n), dtype=f.dtype)
    weights = np.full(f.q ** m, -1, dtype=np.int64)
    weights[0] = 0
    qpows = f.q ** np.arange(m, dtype=np.int64)
    for w in range(1, n + 1):
        if (weights >= 0).all():
            break
        values = np.array(list(itertools.product(range(1, f.q), repeat=w)), dtype=f.dtype)
        step = max(1, cap // (len(values) * n))
        supports = itertools.combinations(range(n), w)
        while chunk := list(itertools.islice(supports, step)):
            chunk = np.array(chunk)
            pat = np.zeros((len(chunk), len(values), n), dtype=f.dtype)
            for i in range(w):
                pat[np.arange(len(chunk)), :, chunk[:, i]] = values[:, i]
            pat = pat.reshape(-1, n)
            s = (f.matmul(pat, H.T).astype(np.int64) * qpows).sum(axis=1)
            ws = weights[s]
            keep = (ws < 0) | (ws == w)
            earlier = s[ws == w]
            pat = np.concatenate([pat[keep], leaders[earlier]])
            s = np.concatenate([s[keep], earlier])
            order = np.lexsort(tuple(pat[:, ::-1].T) + (s,))
            s, pat = s[order], pat[order]
            first = np.ones(len(s), dtype=bool)
            first[1:] = s[1:] != s[:-1]
            leaders[s[first]] = pat[first]
            weights[s[first]] = w
    return leaders, weights


def conjugate_trace_table(ext):
    """``Tr a`` for every element code as the sum of its k conjugates
    a^(q^i), gathered from the power table and added pairwise over GF(Q)
    (int64)."""
    Q = ext.Q
    conj = ext.exp[(ext.log[1:, None] * ext.q ** np.arange(ext.k)) % (Q - 1)]
    acc = np.zeros(Q, dtype=np.int64)
    acc[1:] = ext.as_field().add_reduce(conj, axis=1)
    return acc


def conjugate_dual_table(ext):
    """Row a is (Tr a, Tr alpha a, ..., Tr alpha^(k-1) a), from the Q x k
    products a alpha^j over GF(Q) and :func:`conjugate_trace_table`
    (int64)."""
    basis = np.asarray(ext.power_basis(), dtype=np.int64)
    return conjugate_trace_table(ext)[ext.as_field().mul(np.arange(ext.Q)[:, None], basis)]


def digitwise_sum_tables(p, e, rows=None):
    """The addition table (its ``rows``, default all) and the negation table
    of GF(p^e) from all e base-p digits of every pair of codes at once, mod
    p and packed, in row chunks, as the element-code dtype."""
    q = p ** e
    dtype = code_dtype(q)
    D = digits(np.arange(q), p, e)
    rows = np.arange(q) if rows is None else np.asarray(rows)
    add = np.empty((len(rows), q), dtype=dtype)
    step = chunk_rows(q * e)
    for lo in range(0, len(rows), step):
        add[lo:lo + step] = pack((D[rows[lo:lo + step], None] + D) % p, p)
    return add, pack((-D) % p, p).astype(dtype)


def chunked_digit_sum_tables(p, e, dtype):
    """``galois._digit_sum_tables`` as it composed a digit before: per top
    digit h and chunk of low rows, the sum ``m T1[h][:, None] +
    T[chunk][:, None, :]`` in an int64 buffer of ``chunk_rows`` rows,
    narrowed into the table, with T1 a sliding-window view of
    ``arange(2p - 1) % p``."""
    T1 = np.lib.stride_tricks.sliding_window_view(np.arange(2 * p - 1) % p, p)
    N1 = -np.arange(p) % p
    T, N, m = T1.astype(dtype), N1, p
    for _ in range(e - 1):
        M = m * p
        top = m * T1
        step = min(m, chunk_rows(M))
        buf = np.empty((step, p, m), dtype=np.int64)
        nxt = np.empty((M, M), dtype=dtype)
        for h in range(p):
            for lo in range(0, m, step):
                rows = buf[:min(step, m - lo)]
                np.add(top[h][:, None], T[lo:lo + len(rows), None, :], out=rows)
                nxt[h * m + lo:h * m + lo + len(rows)] = rows.reshape(len(rows), M)
        T = nxt
        N = (m * N1[:, None] + N).reshape(M)
        m = M
    return T, N.astype(dtype)


def self_dual_basis_exists(ext):
    """Whether GF(Q) has a basis over GF(q) with Tr(b_i b_j) = delta_ij, by
    a backtracking search over sets of mutually orthogonal elements of form
    value 1 (orthonormal elements are independent), with the traces of
    :func:`conjugate_trace_table`; for Q <= 81."""
    if ext.Q > 81:
        raise DomainError("the backtracking reference is for Q <= 81")
    form = conjugate_trace_table(ext)[ext.as_field().mul_table]  # Tr(xy)
    units = np.flatnonzero(form.diagonal() == 1)

    def extend(chosen, start):
        if len(chosen) == ext.k:
            return True
        return any(extend(chosen + [u], i + 1) for i, u in enumerate(units[start:], start)
                   if not form[u, chosen].any())

    return extend([], 0)


def pi_rows(m, pair, ext, M):
    """:func:`concat.pi_map` of every row of a matrix over GF(q^k), gathered
    from the pi table of side ``m``'s :class:`concat.Side` record."""
    M = np.asarray(M)
    return _sides(pair, ext)[m - 1].PI[M].reshape(M.shape[0], pair.n * M.shape[1])


def eliminating_verify_duality(cp):
    """The duality identities by three row spaces a side: the null space of
    the generators of L_s against the expected dual pi_o(dual D_s) +
    blockwise dual(C_s), built from the GF(q^k) null space of D_s.G, and
    against the row space of Ho_s.  ``concat.verify_duality``, which makes
    the second comparison alone, must give the same verdict."""
    f = cp.inner.field
    ok = True
    for side, D in ((1, cp.D1), (2, cp.D2)):
        this, other = _facing(cp.sides, side)
        dual = MatGF(f, _concatenated_rows(cp.ext, this.PI, D.G, other.code.H)).null_space()
        Dperp = MatGF(cp.ext.as_field(), D.G).null_space().a
        ok &= dual.same_row_space(MatGF(f, _concatenated_rows(cp.ext, other.PI, Dperp,
                                                              this.code.H)))
        ok &= MatGF(f, cp.parity_check(side)).same_row_space(dual)
    return bool(ok)


def checked_verify_duality(cp):
    """``concat.verify_duality(cp)``, asserted equal to
    :func:`eliminating_verify_duality`."""
    got = verify_duality(cp)
    assert got == eliminating_verify_duality(cp), got
    return got


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


def outer_css_outcome(D1, D2):
    """dual(D2) <= D1 for GRS codes, decided by elimination over GF(Q) as
    enlarged_concat decided its outer tower before the GRS certificate:
    None when the null space of D2.G lies in the row space of D1.G, else
    NotOrthogonal.  It reads G alone, so it is the reference for codes whose
    H generates their dual, as every GrsCode constructor builds them."""
    C1, C2 = D1.as_linear_code(), D2.as_linear_code()
    return None if C2.dual().is_subcode(C1) else NotOrthogonal


def expand_rows(C1, g1, ext, Grows):
    """The N blocks of C1.H under the expanded rows alpha^l Grows[r] (row
    r k + l), symbol by symbol through self-dual coordinates and g1."""
    f, fQ = C1.field, ext.as_field()
    rows = np.array([ext.coords(b) for b in ext.self_dual_basis()], dtype=np.int64)
    change = inverse(f, rows)
    out = []
    for row in Grows:
        for l in range(ext.k):
            coords = f.matmul(ext.coords(fQ.mul(ext.alpha_pow(l), row)), change)
            out.append(f.matmul(coords, np.asarray(g1)).reshape(-1))
    blocks = np.kron(np.eye(Grows.shape[1], dtype=np.int64), C1.H)
    return np.concatenate([np.array(out, dtype=np.int64), blocks], axis=0)


def enlarged_concat(C1, g1, ext, D, Dprime, cap=ENUM_CAP):
    """``(enl, C')``: ``enlarge.enlarged_concat`` on a valid tower by
    elimination, both expanded codes rank-checked nN columns wide, then
    ``enlarge.steane_enlarge``, which proves dual(C) <= C <= C' again and
    finds the completion V by a row profile; and the code C'."""
    f = C1.field
    Cprime = LinearCode(f, expand_rows(C1, g1, ext, Dprime.G))
    enl = steane_enlarge(LinearCode(f, expand_rows(C1, g1, ext, D.G)), Cprime)
    d1 = min_weight_excluding(C1, C1.dual(), cap)
    d_floor, dprime_floor = d1 * (D.N - D.K + 1), d1 * (Dprime.N - Dprime.K + 1)
    enl.report = {"d_floor": d_floor, "dprime_floor": dprime_floor,
                  "guaranteed": enlargement_distance_floor(d_floor, dprime_floor, f.q)}
    return enl, Cprime


# the reason codes of bd_decode_batch, indices into MESSAGES
_ZERO_RADIUS, _DEGREE, _REPEATED_ROOT, _ROOT_COUNT, _MISMATCH = range(1, len(MESSAGES))


def scaled_powers(ext, log_scale, points, rows, start=0):
    """The (rows, N) int64 matrix ``s_j * a_j^i``, i = start .. start +
    rows - 1, for column scales given by their logs, in one piece: the
    reference for the generator and parity check a GrsCode builds."""
    i = np.arange(start, start + rows, dtype=np.int64)[:, None]
    out = ext.exp[(log_scale[None, :] + i * ext.log[points][None, :]) % (ext.Q - 1)]
    out[int(start == 0):, points == 0] = 0  # 0^0 = 1, every higher power is 0
    return out


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
    same ``(E, ok, reason)``.  Reads the code's ``_chien`` tables and a
    fresh ``H``."""
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
    P, c = code._chien
    Ht = code.H.T
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


def dense_outcomes(ctx, E):
    """``DecoderContext.score`` of the miss symbols of error rows ``E``
    through the dense decoder pipeline: the syndromes ``E.Ho^T``
    (:func:`dense_full_syndrome`), stage 1, bounded-distance decoding of the
    nN-column residual ``S_low - Ehat.Gp^T``, Gp the lower rows of the same
    ``Ho``, and the block-level success oracle.

    Returns ``(failed, reason, miscorrected, bad)`` per row: a row with a
    zero residual has reason 0, a miscorrection is a row with a nonzero
    residual whose outer decoding succeeds but which fails, and ``bad``
    counts the stage-1 misses whose symbol is nonzero.
    """
    f = ctx.field
    Ho = ctx.cp.parity_check(ctx.side)
    S = dense_full_syndrome(ctx, E, Ho)
    Ehat = ctx.stage1(S[:, : ctx.upper_len])
    ids, _, W = ctx.block_symbols(f.sub(E, Ehat))
    w = W.reshape(-1)[ids]
    bad = np.bincount(ids[w != 0] // ctx.N, minlength=len(E))
    resid = f.sub(S[:, ctx.upper_len:], f.matmul(Ehat, Ho[ctx.upper_len:].T))
    decoded = np.flatnonzero(resid.any(axis=1))
    symbols = ctx.reassemble_symbols(resid[decoded])
    X, ok, why = ctx.grs.bd_decode_batch(symbols.reshape(decoded.size, ctx.grs.N - ctx.grs.K))
    assert np.array_equal(ok, why == 0)  # a failure always has a reason
    Ehat[decoded] = f.add(Ehat[decoded], ctx.record.PI[X].reshape(decoded.size, Ehat.shape[1]))
    failed = ~success_oracle_rows(ctx, E, Ehat)
    reason = np.zeros(len(E), dtype=why.dtype)
    reason[decoded] = why
    miscorrected = np.zeros(len(E), dtype=bool)
    miscorrected[decoded] = ok & failed[decoded]
    return failed, reason, miscorrected, bad


def dense_mc_error_rate(ctx, channel, trials, seed, chunk=2048):
    """``mc_error_rate`` through :func:`dense_outcomes`, summed chunk by
    chunk over the same trials.

    Returns ``(failures, outer_decode_failures, inner_block_rate,
    miscorrections, outer_failures_by_reason)``.
    """
    failures = bad_blocks = miscorrections = 0
    reasons = np.zeros(len(MESSAGES), dtype=np.int64)
    for start in range(0, trials, chunk):
        E = _sample_block(channel, seed, start, min(chunk, trials - start), ctx.N * ctx.n)
        failed, reason, miscorrected, bad = dense_outcomes(ctx, E)
        failures += int(failed.sum())
        miscorrections += int(miscorrected.sum())
        bad_blocks += int(bad.sum())
        reasons += np.bincount(reason, minlength=len(MESSAGES))
    reasons[0] = 0  # decoded rows and rows with a zero residual
    return (failures, int(reasons.sum()), bad_blocks / (trials * ctx.N), miscorrections,
            tuple(int(r) for r in reasons))


def mds_miscorrections(N, K, Q, w):
    """The number of weight-``w`` errors in GF(Q)^N that bounded-distance
    decoding of an [N, K] MDS code sends to a nonzero codeword (McEliece and
    Swanson, IEEE Trans. IT 32(5), 1986): the sum over codeword weights h of
    A_h times the N(h, w, s) weight-w vectors at distance s <= t from a
    fixed weight-h codeword, t = (N - K) // 2, with A_h the MDS weight
    distribution (MacWilliams and Sloane, ch. 11, Thm 6)."""
    d, t = N - K + 1, (N - K) // 2

    def weights(h):  # A_h
        return math.comb(N, h) * sum((-1) ** j * math.comb(h, j) * (Q ** (h - d + 1 - j) - 1)
                                     for j in range(h - d + 1))

    def near(h, s):  # N(h, w, s)
        # i nonzeros off the codeword's support; on it, a zeros, b entries
        # equal to the codeword's and r other nonzeros: w = i + b + r and
        # s = i + a + r, a + b + r = h
        total = 0
        for i in range(N - h + 1):
            a, r = h - w + i, s - h + w - 2 * i
            b = h - a - r
            if min(a, r, b) >= 0:
                total += (math.comb(N - h, i) * (Q - 1) ** i * math.factorial(h)
                          // (math.factorial(a) * math.factorial(b) * math.factorial(r))
                          * (Q - 2) ** r)
        return total

    return sum(weights(h) * sum(near(h, s) for s in range(t + 1)) for h in range(d, N + 1))


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
