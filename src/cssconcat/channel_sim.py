"""Additive memoryless channels, Monte-Carlo decoding, and exponent bounds.

The channel adds an i.i.d. symbol drawn from a distribution W over GF(q) to
every coordinate.  Monte-Carlo estimation feeds sampled errors through the
two-stage decoder and scores them with the stabilizer-aware success oracle;
trials use counter-based per-trial substreams (Philox keyed by seed and trial
index) so serial and parallel runs agree.  The analytic side provides the
random-coding error exponent, its concatenated-scheme optimization, and the
classical union bound on bounded-distance outer decoding.

All rates and entropies are in log_q units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decode import DecoderContext, _nonzero_rows, success_oracle_rows
from .errors import DomainError, EmptyFeasibleSet


class AdditiveChannel:
    """A probability distribution over the q error symbols of a field."""

    def __init__(self, field, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (field.q,):
            raise DomainError(f"need {field.q} probabilities")
        if (probs < 0).any():
            raise DomainError("probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1")
        self.field = field
        self.q = field.q
        self.probs = probs
        self.cdf = np.cumsum(probs)
        self.cdf[-1] = 1.0

    @classmethod
    def symmetric(cls, field, p):
        """Error probability p spread uniformly over the q-1 nonzero symbols."""
        q = field.q
        probs = np.full(q, p / (q - 1))
        probs[0] = 1.0 - p
        return cls(field, probs)

    def __repr__(self):
        return f"AdditiveChannel(q={self.q}, W={np.array2string(self.probs, precision=4)})"


def _trial_rng(seed, index):
    # counter-based substream: key combines the run seed and the trial index
    return np.random.Generator(np.random.Philox(key=(int(index) << 64) + int(seed)))


def _sample_block(channel, seed, start, count, length):
    """Trials ``start .. start + count - 1`` as rows of element codes, one
    row of Philox draws at a time."""
    E = np.empty((count, length), dtype=channel.field.dtype)
    for i in range(count):
        E[i] = np.searchsorted(channel.cdf, _trial_rng(seed, start + i).random(length),
                               side="right")
    return E


def sample_error(channel: AdditiveChannel, length: int, rng_seed) -> np.ndarray:
    """One i.i.d. error vector: trial 0 of the seed's substreams (inverse CDF)."""
    return _sample_block(channel, rng_seed, 0, 1, length)[0]


@dataclass
class MCResult:
    estimate: float
    ci_lo: float
    ci_hi: float
    failures: int
    trials: int
    inner_block_rate: float
    outer_decode_failures: int

    @property
    def ci(self):
        return (self.ci_lo, self.ci_hi)


def wilson_interval(failures: int, trials: int, z: float = 1.959964):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def mc_error_rate(ctx: DecoderContext, channel: AdditiveChannel, trials: int,
                  seed, chunk: int = 2048) -> MCResult:
    """Monte-Carlo estimate of the decoding failure rate with a Wilson CI.

    A trial fails when the two-stage estimate does not match the sampled
    error modulo the stabilizer.  The measured inner-stage block error rate
    is reported alongside for comparison with the union bound: the fraction
    of inner blocks whose stage-1 miss e_b - leader_b has a nonzero
    g-coefficient c_b (:meth:`DecoderContext.block_split`), that is, the
    miss lies in the side's inner code but outside the opposite inner dual.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if channel.field != ctx.field:
        raise DomainError("channel and decoder fields differ")
    f = ctx.field
    n_total = ctx.N * ctx.n
    failures = 0
    outer_fail = 0
    bad_blocks = 0
    for start in range(0, trials, chunk):
        count = min(chunk, trials - start)
        E = _sample_block(channel, seed, start, count, n_total)
        S = ctx.full_syndrome(E)
        Ehat = ctx.stage1(S[:, : ctx.upper_len])
        bad_blocks += int(np.count_nonzero(_nonzero_rows(ctx.block_split(f.sub(E, Ehat))[2])))
        outer_fail += int((~ctx.outer_stage(S, Ehat)).sum())
        failures += int((~success_oracle_rows(ctx, E, Ehat)).sum())
    lo, hi = wilson_interval(failures, trials)
    return MCResult(estimate=failures / trials, ci_lo=lo, ci_hi=hi,
                    failures=failures, trials=trials,
                    inner_block_rate=bad_blocks / (trials * ctx.N),
                    outer_decode_failures=outer_fail)


# -- analytic quantities -----------------------------------------------------

def _entropy(probs, q):
    probs = np.asarray(probs, dtype=float)
    nz = probs[probs > 0]
    return float(-(nz * (np.log(nz) / np.log(q))).sum())


def entropy_q(channel_or_probs, q=None):
    """Entropy in log_q units of a channel's error distribution."""
    if isinstance(channel_or_probs, AdditiveChannel):
        return _entropy(channel_or_probs.probs, channel_or_probs.q)
    return _entropy(channel_or_probs, q)


def capacity(channel: AdditiveChannel) -> float:
    """1 - H(W) in log_q units."""
    return 1.0 - entropy_q(channel)


def _exponent_objective(W, q, r, Q):
    # D(Q||W) + |1 - r - H(Q)|^+, both in log_q units
    lnq = np.log(q)
    div = 0.0
    for Qx, Wx in zip(Q, W):
        if Qx > 0:
            if Wx <= 0:
                return math.inf
            div += Qx * math.log(Qx / Wx) / lnq
    return div + max(0.0, 1.0 - r - _entropy(Q, q))


def _tilted(W, beta):
    W = np.asarray(W, dtype=float)
    out = np.zeros_like(W)
    sup = W > 0
    if beta == 0.0:
        out[sup] = 1.0 / sup.sum()
    else:
        logw = np.log(W[sup]) * beta
        logw -= logw.max()
        t = np.exp(logw)
        out[sup] = t / t.sum()
    return out


def random_coding_exponent(channel: AdditiveChannel, r: float) -> float:
    """The random-coding error exponent at rate r (log_q units).

    Minimizes D(Q||W) + |1-r-H(Q)|^+ over distributions Q; the minimizer lies
    on the tilted family Q_beta proportional to W^beta, searched on a beta
    grid with local golden-section refinement.
    """
    if not 0.0 <= r <= 1.0:
        raise DomainError("rate must lie in [0, 1]")
    W = channel.probs
    q = channel.q
    if r >= 1.0 - entropy_q(channel) - 1e-15:
        return 0.0

    def val(beta):
        return _exponent_objective(W, q, r, _tilted(W, beta))

    betas = np.concatenate([np.linspace(0.0, 2.0, 81), np.linspace(2.0, 16.0, 29)])
    vals = [val(b) for b in betas]
    i = int(np.argmin(vals))
    lo = betas[max(0, i - 1)]
    hi = betas[min(len(betas) - 1, i + 1)]
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = val(c), val(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = val(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = val(d)
    best = min(min(vals), fc, fd)
    return max(0.0, best)


def simplex_grid_exponent(channel: AdditiveChannel, r: float, step: float = 1e-3) -> float:
    """Brute-force minimization over a simplex grid (cross-validation, q <= 3)."""
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


def union_bound_pe(P_inner: float, N: int, K: int) -> float:
    """Probability that a binomial(N, P) weight reaches the outer radius t+1."""
    if not 0.0 <= P_inner <= 1.0:
        raise DomainError("P_inner must lie in [0, 1]")
    t = (N - K) // 2 + 1
    total = 0.0
    for i in range(t, N + 1):
        total += math.comb(N, i) * P_inner ** i * (1 - P_inner) ** (N - i)
    return min(1.0, total)


def concat_exponent(E, W1, W2, R_o: float, grid: int = 60) -> float:
    """Optimized error exponent of the concatenated scheme at outer rate R_o.

    Maximizes (1/2) min_j (1-R_j) E(W_j, r_j) over inner rates r_j and outer
    rates R_j constrained by (r1+r2-1)(R1+R2-1) = R_o, scanning a grid with
    R2 solved from the constraint.
    """
    if not 0.0 < R_o <= 1.0:
        raise EmptyFeasibleSet("outer rate must lie in (0, 1]")
    best = -math.inf
    rs = np.linspace(0.0, 1.0, grid + 1)
    cache1 = {r: E(W1, r) for r in rs}
    cache2 = {r: E(W2, r) for r in rs}
    for r1 in rs:
        if cache1[r1] <= 0.0:
            continue
        for r2 in rs:
            if cache2[r2] <= 0.0:
                continue
            s = r1 + r2 - 1.0
            if s < R_o - 1e-12 or s <= 0:
                continue
            target = R_o / s  # = R1 + R2 - 1, in (0, 1]
            for R1 in rs:
                R2 = 1.0 + target - R1
                if not (0.0 <= R2 <= 1.0 and 0.0 <= R1 <= 1.0):
                    continue
                v = min((1.0 - R1) * cache1[r1], (1.0 - R2) * cache2[r2])
                if v > best:
                    best = v
    if best == -math.inf:
        raise EmptyFeasibleSet(
            f"no inner rates with positive exponent reach rate product {R_o}")
    return 0.5 * best
