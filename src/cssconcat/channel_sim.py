"""Additive memoryless channels, Monte-Carlo decoding, and exponent bounds.

The channel adds an i.i.d. symbol drawn from a distribution W over GF(q) to
every coordinate.  Monte-Carlo estimation feeds sampled errors through the
two-stage decoder and sums the outcomes that
:meth:`decode.DecoderContext.score` gives them, one GF(Q) symbol per inner
block.  Its reference in the tests is the dense pipeline: the syndromes
E.Ho^T with Ho from :meth:`concat.ConcatPair.parity_check`, ``stage1``, the
residual ``S_low - Ehat.Gp^T`` and ``success_oracle_rows``.
The analytic side provides the random-coding error exponent, its
concatenated-scheme optimization, and the classical union bound on
bounded-distance outer decoding.

Random streams.  Trial i of a run with seed s reads its own stream of
Philox4x64-10 (Salmon et al., SC'11), computed here in numpy and bit-exact
with ``np.random.Philox(key=(i << 64) + s)``: the key's low word is s, its
high word i, the counters of a trial's blocks run 1, 2, ..., and a word x
gives the uniform (x >> 11)·2⁻⁵³.  So a trial depends on (s, i) alone, and
runs agree whatever their chunk size.  The four words of a block are two
(gap, value) pairs.  The nonzero positions of a trial follow a geometric
gap of rate p_nz = 1 - W(0) (Devroye 1986, ch. X): from position -1, each
pair moves on by floor(log1p(-u) / log1p(-p_nz)) + 1 and puts there a value
drawn from W conditioned on being nonzero; the trial ends at the first
position past its length.  Sampling runs in rounds: each round draws
ceil(b/2) blocks, b = L·p_nz + 4·sqrt(L·p_nz) + 2 pairs, for every trial
not yet ended, continuing its counters, so nearly every trial ends in the
first round.

All rates and entropies are in log_q units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decode import DecoderContext
from .errors import DomainError, EmptyFeasibleSet
from .outer_grs import MESSAGES


class AdditiveChannel:
    """A probability distribution over the q error symbols of a field."""

    def __init__(self, field, probs):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (field.q,):
            raise DomainError(f"need {field.q} probabilities")
        if not np.isfinite(probs).all():
            raise DomainError("probabilities must be finite")
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


# 0-d arrays, not numpy scalars: numpy takes them on its fast path
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_SHIFT32 = np.array(32, dtype=np.uint64)
_SHIFT11 = np.array(11, dtype=np.uint64)
# Philox4x64-10 constants: the multipliers of the two words a round
# multiplies, split in 32-bit halves, and the key's per-round (Weyl) bump
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO = _PHILOX_M & _LOW32
_PHILOX_M_HI = _PHILOX_M >> _SHIFT32
_PHILOX_BUMP = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_KEY_LIMIT = 1 << 128
# Philox blocks per call: bounds a round's uint64 temporaries (about 80 bytes
# a block) for long or noisy trials; 2048 trials of [[504,186]] take one call
_ROUND_BLOCKS = 1 << 15
# trials sampled and scored at once by mc_error_rate; results do not depend on it
_CHUNK = 2048


def _philox(counters, key):
    """Philox4x64-10 blocks for counters ``(nb,)`` (the low counter word;
    the others are 0) under the keys ``(2, A, 1)``, low and high words:
    words ``(x0, x2)`` and ``(x1, x3)`` of every block, each ``(2, A, nb)``."""
    shape = (2, key.shape[1], counters.size)
    pair = np.zeros(shape, dtype=np.uint64)  # (x0, x2), the words multiplied
    pair[0] = counters
    rest = np.zeros(shape, dtype=np.uint64)  # (x1, x3)
    for _ in range(10):
        # both 64 x 64 -> 128-bit products of the round at once, from halves
        lo, hi = pair & _LOW32, pair >> _SHIFT32
        mid = hi * _PHILOX_M_LO
        mid += (lo * _PHILOX_M_LO) >> _SHIFT32
        lo *= _PHILOX_M_HI
        lo += mid & _LOW32
        hi *= _PHILOX_M_HI
        hi += mid >> _SHIFT32
        hi += lo >> _SHIFT32
        pair *= _PHILOX_M
        # (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)
        hi = hi[::-1]
        hi ^= rest
        hi ^= key
        pair, rest = hi, pair[::-1]
        key = key + _PHILOX_BUMP
    return pair, rest


def _uniforms(words):
    """Doubles in [0, 1) from 64-bit words, as ``Generator.random`` makes them."""
    return (words >> _SHIFT11).astype(np.float64) * 2.0 ** -53


def _gaps(u, log_keep, length):
    """Zero runs floor(log1p(-u) / log_keep) before each nonzero position,
    clipped to ``length`` before the cast, since a rate near 0 makes them
    huge; ``log_keep`` = log1p(-p_nz) < 0."""
    return np.minimum(np.log1p(-u) / log_keep, length).astype(np.int64)


def _check_keys(seed, last):
    """Raise DomainError unless trials 0 .. ``last`` of ``seed`` have their
    keys (trial << 64) + seed in [0, 2**128)."""
    if seed < 0 or (last << 64) + seed >= _KEY_LIMIT:
        raise DomainError("trial keys (trial << 64) + seed must lie in [0, 2**128)")


def _sample_block(channel, seed, start, count, length):
    """Trials ``start .. start + count - 1`` as dense rows of element codes;
    the stream scheme is in the module docstring."""
    seed, start = int(seed), int(start)
    _check_keys(seed, start + count - 1)
    E = np.zeros((count, length), dtype=channel.field.dtype)
    p_nz = 1.0 - channel.probs[0]
    if p_nz <= 0.0:
        return E
    # 1 - W(0) is 1 or at least 2**-53, so the quotients of _gaps stay finite
    log_keep = math.log1p(-p_nz) if p_nz < 1.0 else -math.inf
    nonzero_cdf = np.cumsum(channel.probs[1:])[:-1]
    mean = length * p_nz
    nb = math.ceil((mean + 4.0 * math.sqrt(mean) + 2.0) / 2.0)
    key = np.empty((2, count, 1), dtype=np.uint64)
    key[0] = seed & (2 ** 64 - 1)
    key[1, :, 0] = np.arange(count, dtype=np.uint64) + np.uint64(start + (seed >> 64))
    step = max(1, _ROUND_BLOCKS // nb)
    for begin in range(0, count, step):
        active = np.arange(begin, min(begin + step, count))
        last = np.full(active.size, -1, dtype=np.int64)
        first = 1
        while active.size:
            gap_words, value_words = _philox(
                np.arange(first, first + nb, dtype=np.uint64), key[:, active])
            first += nb
            # pair 2j + s of a trial is block j's (x_2s, x_2s+1)
            gaps = _gaps(_uniforms(gap_words.transpose(1, 2, 0).reshape(active.size, -1)),
                         log_keep, length)
            pos = np.cumsum(gaps + 1, axis=1)
            pos += last[:, None]
            rows, cols = np.nonzero(pos < length)
            u = _uniforms(value_words.transpose(1, 2, 0)[rows, cols // 2, cols % 2]) * p_nz
            E[active[rows], pos[rows, cols]] = 1 + np.searchsorted(nonzero_cdf, u, side="right")
            last = pos[:, -1]
            going = last < length
            active, last = active[going], last[going]
    return E


def sample_error(channel: AdditiveChannel, length: int, rng_seed) -> np.ndarray:
    """One i.i.d. error vector: trial 0 of the seed's substreams."""
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
    # outer decoding succeeded, but the trial fails
    miscorrections: int
    # the outer decode failures by reason, indexed like outer_grs.MESSAGES
    outer_failures_by_reason: tuple


def wilson_interval(failures: int, trials: int):
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise DomainError("trials must be positive")
    z = 1.959964  # the two-sided 95% quantile of the standard normal
    phat = failures / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def mc_error_rate(ctx: DecoderContext, channel: AdditiveChannel, trials: int,
                  seed) -> MCResult:
    """Monte-Carlo estimate of the decoding failure rate with a Wilson CI.

    Samples the trials ``_CHUNK`` at a time and sums the outcomes that
    :meth:`DecoderContext.score` gives the miss symbols of each chunk: the
    failures, the outer decode failures by reason, the miscorrections, and
    the nonzero z_b, whose share of the blocks is reported as the measured
    inner-stage block error rate, for comparison with the union bound.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    if channel.field != ctx.field:
        raise DomainError("channel and decoder fields differ")
    _check_keys(int(seed), trials - 1)  # _sample_block meets a bad key only at its chunk
    failures = bad_blocks = miscorrections = 0
    reasons = np.zeros(len(MESSAGES), dtype=np.int64)
    for start in range(0, trials, _CHUNK):
        # the sampled errors are freed before scoring: nothing past miss_symbols reads them
        failed, reason, miscorrected, bad = ctx.score(ctx.miss_symbols(
            _sample_block(channel, seed, start, min(_CHUNK, trials - start), ctx.N * ctx.n)))
        failures += int(np.count_nonzero(failed))
        miscorrections += int(np.count_nonzero(miscorrected))
        bad_blocks += int(bad.sum())
        reasons += np.bincount(reason[reason != 0], minlength=len(MESSAGES))
    lo, hi = wilson_interval(failures, trials)
    return MCResult(estimate=failures / trials, ci_lo=lo, ci_hi=hi, failures=failures,
                    trials=trials, inner_block_rate=bad_blocks / (trials * ctx.N),
                    outer_decode_failures=int(reasons.sum()), miscorrections=miscorrections,
                    outer_failures_by_reason=tuple(int(r) for r in reasons))


# -- analytic quantities -----------------------------------------------------

def _entropy(probs, q):
    probs = np.asarray(probs, dtype=float)
    nz = probs[probs > 0]
    return float(-(nz * (np.log(nz) / np.log(q))).sum())


def entropy_q(channel: AdditiveChannel) -> float:
    """Entropy in log_q units of a channel's error distribution."""
    return _entropy(channel.probs, channel.q)


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
