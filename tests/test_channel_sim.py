"""Channels, Monte-Carlo harness, exponents and union bound."""

import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cssconcat import channel_sim, decode, matrix
from cssconcat.channel_sim import (
    AdditiveChannel,
    _gaps,
    _philox,
    _sample_block,
    _uniforms,
    capacity,
    concat_exponent,
    entropy_q,
    mc_error_rate,
    random_coding_exponent,
    sample_error,
    union_bound_pe,
    wilson_interval,
)
from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate
from cssconcat.decode import DecoderContext, decode_batch
from cssconcat.errors import DomainError, EmptyFeasibleSet
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import MESSAGES, GrsCode, nested_grs_pair
import references
from references import dense_matmul, dense_mc_error_rate, simplex_grid_exponent

F2 = Field(2)


def test_channel_validation():
    with pytest.raises(DomainError):
        AdditiveChannel(F2, [0.5, 0.6])
    with pytest.raises(DomainError):
        AdditiveChannel(F2, [1.5, -0.5])
    for bad in ([math.nan, math.nan], [math.inf, 0.0], [1.0, -math.inf]):
        with pytest.raises(DomainError, match="finite"):
            AdditiveChannel(F2, bad)
    ch = AdditiveChannel.symmetric(Field(2, 2), 0.03)
    assert abs(ch.probs.sum() - 1.0) < 1e-12
    assert ch.probs[1] == pytest.approx(0.01)


def test_sample_point_mass():
    """W(0) = 1 draws nothing; W(0) = 0 puts a nonzero value everywhere."""
    ch = AdditiveChannel(F2, [1.0, 0.0])
    assert not sample_error(ch, 100, 3).any()
    assert not _sample_block(ch, 3, 0, 50, 100).any()
    assert (sample_error(AdditiveChannel(F2, [0.0, 1.0]), 100, 3) == 1).all()
    f4 = Field(2, 2)
    E = _sample_block(AdditiveChannel(f4, [0.0, 0.2, 0.3, 0.5]), 3, 0, 200, 50)
    assert E.dtype == f4.dtype and (E != 0).all()
    counts = np.bincount(E.ravel(), minlength=4)[1:]
    assert _chi2_z(counts, E.size * np.array([0.2, 0.3, 0.5])) < 3.5


# -- the sampler's random streams -------------------------------------------

def _chi2_z(observed, expected):
    """Wilson-Hilferty z-score of Pearson's chi-square statistic, the cells
    expected below 5 pooled into one."""
    observed, expected = np.asarray(observed, dtype=float), np.asarray(expected, dtype=float)
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    dof = observed.size - 1
    x = ((observed - expected) ** 2 / expected).sum()
    return ((x / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))


def _reference_trial(ch, key, length):
    """One trial by the stream scheme, one (gap, value) pair at a time from
    numpy's own Philox keyed ``key``."""
    gen = np.random.Generator(np.random.Philox(key=key))
    p_nz = 1.0 - ch.probs[0]
    log_keep = math.log1p(-p_nz) if p_nz < 1 else -math.inf
    e = np.zeros(length, dtype=ch.field.dtype)
    pos = -1
    while True:
        u, v = gen.random(2)
        pos += int(min(np.log1p(-np.array([u]))[0] / log_keep, length)) + 1
        if pos >= length:
            return e
        e[pos] = 1 + np.searchsorted(np.cumsum(ch.probs[1:])[:-1], v * p_nz, side="right")


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_philox_matches_numpy(seed):
    """The numpy-arithmetic Philox4x64-10 is bit-exact with np.random.Philox
    keyed (trial << 64) + seed, counters from 1 and continued across calls,
    for trial indices past 2**32 too; its uniforms are Generator.random's."""
    trials = [0, 1, 2 ** 32 + 3, 2 ** 64 - 1]
    key = np.array([[seed] * len(trials), trials], dtype=np.uint64)[:, :, None]
    blocks = [_philox(np.arange(a, b, dtype=np.uint64), key) for a, b in ((1, 7), (7, 10))]
    words = np.concatenate([np.stack([pair[0], rest[0], pair[1], rest[1]], axis=-1)
                            for pair, rest in blocks], axis=1).reshape(len(trials), -1)
    for row, t in zip(words, trials):
        key = (t << 64) + seed
        assert np.array_equal(row, np.random.Philox(key=key).random_raw(36))
        assert np.array_equal(_uniforms(row),
                              np.random.Generator(np.random.Philox(key=key)).random(36))


@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 - 1])
def test_sampler_matches_reference_trials(seed):
    """Trials drawn in a chunk, and one at a time by sample_error under the
    key (i << 64) + seed (at least 2**64 from trial 1 on), against the
    one-pair-at-a-time reference on numpy's Philox: GF(2), a non-symmetric
    GF(3) channel and a dense GF(4) one, from trials 0 and 2**32 - 2."""
    cases = [(AdditiveChannel.symmetric(F2, 0.05), 90),
             (AdditiveChannel(Field(3), [0.8, 0.15, 0.05]), 40),
             (AdditiveChannel.symmetric(Field(2, 2), 0.6), 7)]
    for ch, length in cases:
        for start in (0, 2 ** 32 - 2):
            E = _sample_block(ch, seed, start, 5, length)
            for i, row in enumerate(E, start):
                key = (i << 64) + seed
                assert np.array_equal(row, _reference_trial(ch, key, length))
                assert np.array_equal(sample_error(ch, length, key), row)


def test_gap_ends():
    """u = 0 gives gap 0 and u = 1 - 2**-53 the longest gap, clipped to the
    length before the int cast; p_nz = 1 - W(0) = 1 gives only zero gaps."""
    u = np.array([0.0, 2.0 ** -53, 1 - 2.0 ** -53])
    log_keep = math.log1p(-0.1)
    longest = int(math.log(2.0 ** -53) / log_keep)
    assert longest == 348
    assert _gaps(u, log_keep, 1000).tolist() == [0, 0, 348]
    assert _gaps(u, log_keep, 90).tolist() == [0, 0, 90]
    assert _gaps(u, -math.inf, 90).tolist() == [0, 0, 0]
    # p_nz = 1e-15: about 3.7e16 positions; a rate near 0 would leave int64
    assert _gaps(u, math.log1p(-1e-15), 90).tolist() == [0, 0, 90]
    assert _gaps(u, -1e-300, 90).tolist() == [0, 90, 90]
    ch = AdditiveChannel(F2, [1 - 1e-15, 1e-15])
    assert not _sample_block(ch, 3, 0, 500, 200).any()


def test_sampler_weights_and_marginals():
    """Weights against Bin(L, p_nz) and the per-position nonzero counts
    against Bin(trials, p_nz), both by chi-square."""
    L, trials = 60, 20000
    ch = AdditiveChannel(Field(3), [0.9, 0.07, 0.03])
    E = _sample_block(ch, 11, 0, trials, L)
    pmf = np.array([math.comb(L, w) * 0.1 ** w * 0.9 ** (L - w) for w in range(L + 1)])
    weights = np.count_nonzero(E, axis=1)
    assert _chi2_z(np.bincount(weights, minlength=L + 1), trials * pmf) < 3.5
    per_position = np.count_nonzero(E, axis=0)
    x = ((per_position - trials * 0.1) ** 2 / (trials * 0.1 * 0.9)).sum()
    assert abs(x - L) < 3.5 * math.sqrt(2 * L)


@pytest.mark.parametrize("q, probs", [(3, [0.7, 0.22, 0.08]), (4, [0.8, 0.02, 0.08, 0.1])])
def test_sampler_value_frequencies(q, probs):
    """The values of the nonzero entries follow W conditioned on nonzero."""
    f = Field(2, 2) if q == 4 else Field(q)
    E = _sample_block(AdditiveChannel(f, probs), 5, 0, 4000, 50)
    values = E[E != 0]
    cond = np.array(probs[1:]) / (1 - probs[0])
    assert values.dtype == f.dtype and values.min() >= 1
    assert _chi2_z(np.bincount(values, minlength=q)[1:], values.size * cond) < 3.5


def test_mc_path_loads_no_numpy_random():
    """Set-up and Monte-Carlo on both sides of [[90,28]], a [[20,6]]
    enlargement with its self-dual basis, and the self-dual basis that GF(9)
    lacks never import numpy.random, whose extension modules would stay
    resident.  This needs numpy >= 2.0 (the floor in pyproject.toml): its
    ``import numpy`` loads ``numpy.random`` on first attribute access, where
    1.x imports it eagerly."""
    code = textwrap.dedent("""
        import sys
        from cssconcat.channel_sim import AdditiveChannel, mc_error_rate
        from cssconcat.codes import LinearCode, bvector_pair
        from cssconcat.concat import concatenate
        from cssconcat.decode import DecoderContext
        from cssconcat.enlarge import distance2_inner_generator, enlarged_concat
        from cssconcat.galois import Extension, Field
        from cssconcat.outer_grs import GrsCode, nested_grs_pair, self_dual_multiplier_grs

        f2, e16 = Field(2), Extension(Field(2), 4)
        cp = concatenate(bvector_pair(f2, [1] * 6, [1] * 6), nested_grs_pair(e16, 15, 11, 11), e16)
        assert (cp.block_length, cp.logical_dims) == (90, 28)
        ch = AdditiveChannel.symmetric(f2, 0.01)
        for side in (1, 2):
            mc_error_rate(DecoderContext(cp, side=side), ch, 300, 1)
        assert "numpy.random" not in sys.modules
        # an enlargement, which builds a self-dual basis of GF(16) over GF(4)
        f4 = Field(2, 2)
        G, _, gs = distance2_inner_generator(f4, 4)
        e16 = Extension(f4, 2)
        pts = [e16.alpha_pow(j) for j in range(5)]
        D = self_dual_multiplier_grs(e16, pts, 3)
        enl = enlarged_concat(LinearCode(f4, G.a), gs, e16, D, GrsCode(e16, pts, D.multipliers, 5))
        assert (enl.length, enl.logical_dims) == (20, 6)
        assert Extension(Field(3), 2).self_dual_basis() is None
        assert "numpy.random" not in sys.modules
    """)
    import cssconcat
    src = os.path.dirname(os.path.dirname(os.path.abspath(cssconcat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


def test_sample_deterministic():
    ch = AdditiveChannel.symmetric(F2, 0.3)
    a = sample_error(ch, 1000, 42)
    b = sample_error(ch, 1000, 42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_error(ch, 1000, 43))


def test_sample_binomial_statistics():
    ch = AdditiveChannel(F2, [0.5, 0.5])
    v = sample_error(ch, 10 ** 4, 7)
    mean = v.sum()
    sigma = math.sqrt(10 ** 4 * 0.25)
    assert abs(mean - 5000) <= 3 * sigma


def _ctx_12_2():
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    cp = concatenate(inner, nested_grs_pair(e4, 3, 1, 3), e4)
    return DecoderContext(cp, side=1)


def test_mc_noiseless():
    ctx = _ctx_12_2()
    res = mc_error_rate(ctx, AdditiveChannel(F2, [1.0, 0.0]), 500, 1)
    assert res.estimate == 0.0
    assert res.failures == 0


def test_mc_monotone_in_p():
    ctx = _ctx_12_2()
    rates = []
    for p in (0.02, 0.01, 0.005):
        res = mc_error_rate(ctx, AdditiveChannel.symmetric(F2, p), 4000, 99)
        rates.append(res.estimate)
    assert rates[0] >= rates[1] >= rates[2]


def test_mc_deterministic():
    ctx = _ctx_12_2()
    ch = AdditiveChannel.symmetric(F2, 0.02)
    r1 = mc_error_rate(ctx, ch, 1000, 5)
    r2 = mc_error_rate(ctx, ch, 1000, 5)
    assert r1.failures == r2.failures


def test_mc_chunk_invariance(monkeypatch):
    """Per-trial substreams: chunking changes neither the counts nor the
    sampled errors, byte for byte, and trial i is sample_error's trial 0 of
    the key (i << 64) + seed, as the benchmark's replay assumes.  Trial 2056
    of seed 47 has 10 errors in 135 positions at p = 0.01, so its 11 pairs
    overrun a round's budget of 8 and it ends in a second round.  Chunks of
    7 count all 100 trials of a channel where every trial fails."""
    ctx = _ctx_12_2()
    ch = AdditiveChannel.symmetric(F2, 0.02)
    monkeypatch.setattr(channel_sim, "_CHUNK", 37)
    r1 = mc_error_rate(ctx, ch, 600, 5)
    monkeypatch.setattr(channel_sim, "_CHUNK", 600)
    r2 = mc_error_rate(ctx, ch, 600, 5)
    assert r1.failures == r2.failures
    monkeypatch.setattr(channel_sim, "_CHUNK", 7)
    every = AdditiveChannel.symmetric(F2, 0.5)
    assert mc_error_rate(DecoderContext(_cp_90_28(), side=1), every, 100, 1).failures == 100
    ch, seed, n, length = AdditiveChannel.symmetric(F2, 0.01), 47, 2100, 135
    whole = _sample_block(ch, seed, 0, n, length)
    assert np.count_nonzero(whole[2056]) == 10
    assert np.array_equal(_reference_trial(ch, (2056 << 64) + seed, length), whole[2056])
    splits = [list(range(0, n, chunk)) for chunk in (1, 37, 2048)]
    splits += [[0, 2050, 2056, 2057], [0, 2000, 2070]]
    for starts in splits:
        parts = [_sample_block(ch, seed, a, b - a, length)
                 for a, b in zip(starts, starts[1:] + [n])]
        assert np.array_equal(np.concatenate(parts), whole)
    for i in [0, 1, 999, 2056, n - 1]:
        assert np.array_equal(sample_error(ch, length, (i << 64) + seed), whole[i])


def test_mc_heap_holds_narrow_codes():
    """Codes stay in the field's dtype from sampling to decoding: one
    512-trial call on [[90,28]] peaks within 1 MB of its start (about 0.4 MB;
    1.9 MB with int64 codes)."""
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    cp = concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)
    assert cp.parity_check(1).dtype == F2.dtype
    ctx = DecoderContext(cp, side=1)
    ch = AdditiveChannel.symmetric(F2, 0.01)
    mc_error_rate(ctx, ch, 512, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        mc_error_rate(ctx, ch, 512, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.0e6


def test_mc_heap_bounded_at_high_noise():
    """On [[2550,1016]] at p = 0.2 nearly nine blocks in ten are bad and
    every outer decoding fails.  The coordinates of the 110k bad blocks
    become symbols in slices, and the GF(Q) product of 512 rows of over 200
    nonzero symbols by Hout^T runs in row slices, so the call peaks within
    13 MB of its start: about 9.8 MB, 19 MB with all symbols made at once
    and 35 MB with the product in one slice."""
    ext = Extension(F2, 8)
    cp = concatenate(bvector_pair(F2, [1] * 10, [1] * 10),
                     nested_grs_pair(ext, 255, 191, 191), ext)
    ctx = DecoderContext(cp, side=2)
    ch = AdditiveChannel.symmetric(F2, 0.2)
    mc_error_rate(ctx, ch, 8, 1)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        r = mc_error_rate(ctx, ch, 512, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.outer_decode_failures == 512 and r.inner_block_rate > 0.85
    assert peak - start <= 13.0e6


def test_mc_rejects_trial_keys_past_range(monkeypatch):
    """Trials whose keys (trial << 64) + seed would reach 2**128 raise
    DomainError before any chunk is sampled, however many trials are asked
    for; the sampler rejects such keys, and negative seeds, itself."""
    ctx = DecoderContext(_cp_90_28(), side=1)
    ch = AdditiveChannel.symmetric(F2, 0.01)
    calls = []
    monkeypatch.setattr(channel_sim, "_sample_block", lambda *args: calls.append(args))
    for trials, seed in ((10 ** 23, 1), (2 ** 64 + 1, 0), (2 ** 64 + 1, 2 ** 64 - 1), (5, -1)):
        with pytest.raises(DomainError, match="trial keys"):
            mc_error_rate(ctx, ch, trials, seed)
    assert calls == []
    monkeypatch.undo()
    assert mc_error_rate(ctx, ch, 3, 2 ** 64 - 1).trials == 3
    for seed, start in ((2 ** 128, 0), (0, 2 ** 64), (-1, 0)):
        with pytest.raises(DomainError, match="trial keys"):
            _sample_block(ch, seed, start, 1, 10)
    assert _sample_block(ch, 2 ** 64 - 1, 2 ** 64 - 1, 1, 10).shape == (1, 10)  # 2**128 - 1


def test_mc_sums_score_chunk_by_chunk(monkeypatch):
    """mc_error_rate samples _CHUNK trials at a time (2048 by default) and
    scores each chunk with one DecoderContext.score call; the outer decoder
    runs only inside score."""
    assert channel_sim._CHUNK == 2048
    monkeypatch.setattr(channel_sim, "_CHUNK", 100)
    ctx = DecoderContext(_cp_90_28(), side=2)
    sizes, decodes = [], []
    score, bd_decode_batch = DecoderContext.score, GrsCode.bd_decode_batch

    def spy_score(self, Z):
        sizes.append(len(Z))
        try:
            return score(self, Z)
        finally:
            sizes.append(None)

    def spy_decode(self, S):
        decodes.append(bool(sizes) and sizes[-1] is not None)  # inside a score call
        return bd_decode_batch(self, S)

    monkeypatch.setattr(DecoderContext, "score", spy_score)
    monkeypatch.setattr(GrsCode, "bd_decode_batch", spy_decode)
    r = mc_error_rate(ctx, AdditiveChannel.symmetric(F2, 0.03), 250, 3)
    assert sizes == [100, None, 100, None, 50, None]
    assert decodes == [True] * 3 and r.outer_decode_failures > 0


# -- the symbol-level Monte-Carlo against the dense decoder pipeline ----------

def _cp(field, n, k, N, K):
    ext = Extension(field, k)
    return concatenate(bvector_pair(field, [1] * n, [1] * n),
                       nested_grs_pair(ext, N, K, K), ext)


def _cp_90_28():
    """rs15-gf16: inner [[6,4]] over GF(2), RS[15,11] over GF(16)."""
    return _cp(F2, 6, 4, 15, 11)


def _cp_96_32_gf3():
    """Inner [[6,4]] over GF(3), RS[16,12] over GF(81)."""
    return _cp(Field(3), 6, 4, 16, 12)


def _cp_60_14_gf4():
    """Inner [[4,2]] over GF(4), RS[15,11] over GF(16)."""
    return _cp(Field(2, 2), 4, 2, 15, 11)


def _cp_480_160_gf3():
    """rs80-gf81: inner [[6,4]] over GF(3), RS[80,60] over GF(81)."""
    return _cp(Field(3), 6, 4, 80, 60)


def _mc_tuple(r):
    return (r.failures, r.outer_decode_failures, r.inner_block_rate, r.miscorrections,
            r.outer_failures_by_reason)


@pytest.mark.parametrize("field", [Field(2, 2), Field(2, 4), Field(3, 4), Field(3, 5),
                                   Field(2, 10)])
@pytest.mark.parametrize("chunk_bytes", [256, 1 << 19])
def test_sparse_matmul_matches_field_product(monkeypatch, field, chunk_bytes):
    """Differential test of ``Field.matmul`` over table fields, whose
    product skips zero entries, against the dense multiplication-table
    gather of ``references.dense_matmul``: GF(4), GF(16), GF(81), GF(3^5)
    and GF(1024) (int16 codes); rows of every weight, all-zero and
    full-weight rows, batches of 0 and 1 rows, a 1-D row and inner
    dimension 0; one slice and slices of a few rows."""
    monkeypatch.setattr(matrix, "_CHUNK_BYTES", chunk_bytes)
    assert field.kind == "tables"
    rng = np.random.default_rng(field.q)
    A = rng.integers(0, field.q, size=(40, 25)) * (rng.random((40, 25)) < 0.2)
    A[::7] = 0
    A[3] = rng.integers(1, field.q, size=25)
    A = A.astype(field.dtype)
    B = rng.integers(0, field.q, size=(25, 9)).astype(field.dtype)
    for rows in (0, 1, len(A)):
        got = field.matmul(A[:rows], B)
        assert got.dtype == field.dtype and got.shape == (rows, 9)
        assert np.array_equal(got, dense_matmul(field, A[:rows], B))
    assert np.array_equal(field.matmul(A[3].astype(np.int64), B), dense_matmul(field, A[3], B))
    assert not A[::7].any() and not field.matmul(A[::7], B).any()
    empty = field.matmul(np.zeros((5, 0), dtype=field.dtype), np.zeros((0, 9), dtype=field.dtype))
    assert empty.shape == (5, 9) and not empty.any()
    with pytest.raises(DomainError):
        field.matmul(A, np.full((25, 9), field.q))
    with pytest.raises(DomainError):
        field.matmul(np.full((2, 25), -1), B)


def test_sparse_matmul_heap_is_sliced():
    """256 full-weight rows of 255 GF(256) symbols by a 255 x 191 matrix
    through ``Field.matmul``: the 12.5M-entry gather runs a row at a time,
    so the product peaks within 4 MB (52 MB in one slice)."""
    f = Extension(F2, 8).as_field()
    rng = np.random.default_rng(255)
    A = rng.integers(1, f.q, size=(256, 255)).astype(f.dtype)
    B = rng.integers(0, f.q, size=(255, 191)).astype(f.dtype)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        got = f.matmul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 4.0e6
    assert np.array_equal(got[:8], dense_matmul(f, A[:8], B))


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
@pytest.mark.parametrize("side", [1, 2])
def test_mc_matches_dense_reference(monkeypatch, make_cp, side):
    """GF(2), GF(3) and GF(4) inner fields, both sides, chunks that do not
    divide the trials: every count is the dense pipeline's."""
    ctx = DecoderContext(make_cp(), side=side)
    ch = AdditiveChannel.symmetric(ctx.field, 0.03)
    monkeypatch.setattr(channel_sim, "_CHUNK", 256)
    r = mc_error_rate(ctx, ch, 700, 11)
    want = dense_mc_error_rate(ctx, ch, 700, 11, chunk=300)
    assert _mc_tuple(r) == want
    assert r.failures > r.outer_decode_failures > 0 and r.trials == 700
    monkeypatch.setattr(channel_sim, "_CHUNK", 700)
    assert _mc_tuple(mc_error_rate(ctx, ch, 700, 11)) == want


@pytest.mark.parametrize("side", [1, 2])
def test_mc_miscorrections_and_failure_reasons(side):
    """rs15-gf16 at p = 0.01 has both outer failures, of several reasons,
    and miscorrections; the counts sum as documented and match the dense
    reference."""
    ctx = DecoderContext(_cp_90_28(), side=side)
    ch = AdditiveChannel.symmetric(F2, 0.01)
    r = mc_error_rate(ctx, ch, 4096, 921)
    assert _mc_tuple(r) == dense_mc_error_rate(ctx, ch, 4096, 921)
    reasons = r.outer_failures_by_reason
    assert len(reasons) == len(MESSAGES) and reasons[0] == 0
    assert sum(reasons) == r.outer_decode_failures and sum(map(bool, reasons)) >= 2
    assert 0 < r.miscorrections <= r.failures - r.outer_decode_failures


@pytest.mark.parametrize("side", [1, 2])
def test_mc_outer_failures_odd_characteristic(side):
    """rs80-gf81 at p = 0.03: most trials overrun the outer radius."""
    ctx = DecoderContext(_cp_480_160_gf3(), side=side)
    ch = AdditiveChannel.symmetric(ctx.field, 0.03)
    r = mc_error_rate(ctx, ch, 600, 4)
    assert _mc_tuple(r) == dense_mc_error_rate(ctx, ch, 600, 4)
    assert r.outer_decode_failures > 100


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
def test_mc_without_errors(monkeypatch, make_cp):
    """W(0) = 1: no error at all, so nothing is bad, decoded or failed."""
    monkeypatch.setattr(channel_sim, "_CHUNK", 128)
    cp = make_cp()
    probs = np.zeros(cp.inner.field.q)
    probs[0] = 1.0
    ch = AdditiveChannel(cp.inner.field, probs)
    for side in (1, 2):
        ctx = DecoderContext(cp, side=side)
        r = mc_error_rate(ctx, ch, 300, 2)
        assert _mc_tuple(r) == dense_mc_error_rate(ctx, ch, 300, 2, chunk=128)
        assert _mc_tuple(r) == (0, 0, 0.0, 0, (0,) * len(MESSAGES))


@pytest.mark.parametrize("side", [1, 2])
def test_mc_logical_error_is_no_miscorrection(monkeypatch, side):
    """A trial whose miss symbols are a codeword of D_side outside
    dual(D_o) has a zero outer syndrome: the outer decoder leaves it, and
    it fails as an undetected logical error, not as a miscorrection.  The
    chunk pi_side of the last row of D_side.G, a zero row, and pi_side of a
    row of dual(D_o), a stabilizer, gives one failure, no outer failure and
    no miscorrection, as the dense reference does."""
    cp = _cp_90_28()
    ctx = DecoderContext(cp, side=side)
    D, D_o = (cp.D1, cp.D2) if side == 1 else (cp.D2, cp.D1)
    Z = np.stack([D.G[-1], np.zeros(cp.N, dtype=D_o.H.dtype), D_o.H[0]])
    E = ctx.record.PI[Z].reshape(len(Z), -1)

    def sample(channel, seed, start, count, length):
        return E[start:start + count]

    monkeypatch.setattr(channel_sim, "_sample_block", sample)
    monkeypatch.setattr(references, "_sample_block", sample)
    ch = AdditiveChannel.symmetric(F2, 0.01)
    r = mc_error_rate(ctx, ch, len(E), 1)
    assert _mc_tuple(r) == dense_mc_error_rate(ctx, ch, len(E), 1)
    assert (r.failures, r.outer_decode_failures, r.miscorrections) == (1, 0, 0)


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
@pytest.mark.parametrize("side", [1, 2])
def test_mc_rows_pass_the_inner_check(make_cp, side):
    """Condition (i) of the decode docstring holds on every Monte-Carlo
    row: the decode_batch estimates of sampled trials differ from the errors by
    blocks orthogonal to H, outer failures and miscorrections included."""
    ctx = DecoderContext(make_cp(), side=side)
    ch = AdditiveChannel.symmetric(ctx.field, 0.05)
    E = _sample_block(ch, 3, 0, 400, ctx.N * ctx.n)
    S = ctx.full_syndrome(E)
    Ehat, outer_ok = decode_batch(ctx, S)
    ids, H, W = ctx.block_symbols(ctx.field.sub(Ehat, E))
    w = W.reshape(-1)[ids]
    assert (~outer_ok).any() and w.any() and not H.any()


def test_mc_runs_no_dense_stage(monkeypatch):
    """mc_error_rate calls none of the dense pipeline's stages, and no
    operand of a field product it runs is wider than an inner block over
    GF(q) or than N over GF(Q): nothing like the (k K_o, k N) matrix the
    success test once gathered."""
    cp = _cp_90_28()
    ctxs = [DecoderContext(cp, side=side) for side in (1, 2)]

    def refuse(*args, **kwargs):
        raise AssertionError("dense stage on the Monte-Carlo path")
    for name in ("full_syndrome", "stage1", "_leaders"):
        monkeypatch.setattr(DecoderContext, name, refuse)
    monkeypatch.setattr(decode, "success_oracle_rows", refuse)
    widths, matmul = [], Field._matmul  # every product, the GRS codes' included

    def spy(self, A, B):
        widths.append((self.q, max(np.shape(A)[-1:] + np.shape(B)[1:])))
        return matmul(self, A, B)
    monkeypatch.setattr(Field, "_matmul", spy)
    ch = AdditiveChannel.symmetric(F2, 0.03)
    for ctx in ctxs:
        assert mc_error_rate(ctx, ch, 300, 3).failures > 0
    assert (2, cp.n) in widths
    assert all(w <= (cp.n if q == 2 else cp.N) for q, w in widths)


def test_wilson_interval():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_exponent_zero_at_capacity():
    W = AdditiveChannel(F2, [0.9, 0.1])
    c = capacity(W)
    assert random_coding_exponent(W, min(1.0, c + 1e-3)) == 0.0
    assert random_coding_exponent(W, max(0.0, c - 0.05)) > 0.0


def test_exponent_noiseless():
    W = AdditiveChannel(F2, [1.0, 0.0])
    assert random_coding_exponent(W, 0.3) == pytest.approx(0.7)
    assert random_coding_exponent(W, 1.0) == 0.0


def test_exponent_matches_simplex_grid():
    for probs, q in (([0.9, 0.1], None), ([0.8, 0.15, 0.05], None)):
        f = F2 if len(probs) == 2 else Field(3)
        W = AdditiveChannel(f, probs)
        for r in (0.0, 0.1, 0.2, 0.4):
            a = random_coding_exponent(W, r)
            b = simplex_grid_exponent(W, r, 1e-3)
            assert abs(a - b) < 1e-3


def test_exponent_monotone_and_domain():
    W = AdditiveChannel(F2, [0.85, 0.15])
    vals = [random_coding_exponent(W, r) for r in np.linspace(0, 1, 21)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        random_coding_exponent(W, 1.5)


def test_union_bound_values():
    assert union_bound_pe(0.0, 15, 11) == 0.0
    assert union_bound_pe(1.0, 15, 11) == 1.0
    # N=3, K=0: t = 2, so P(>=2 of 3) at p=0.1
    assert union_bound_pe(0.1, 3, 0) == pytest.approx(0.028)


def test_concat_exponent():
    noiseless = AdditiveChannel(F2, [1.0, 0.0])
    v = concat_exponent(random_coding_exponent, noiseless, noiseless, 0.5, grid=40)
    assert v > 0.0
    # shrinking feasible set towards rate 1 drives the value down
    v9 = concat_exponent(random_coding_exponent, noiseless, noiseless, 0.9, grid=40)
    assert v9 < v
    noisy = AdditiveChannel(F2, [0.9, 0.1])
    with pytest.raises(EmptyFeasibleSet):
        concat_exponent(random_coding_exponent, noisy, noisy, 1.0, grid=20)


def test_entropy_q():
    assert entropy_q(AdditiveChannel(F2, [0.5, 0.5])) == pytest.approx(1.0)
    assert entropy_q(AdditiveChannel(Field(2, 2), [0.25] * 4)) == pytest.approx(1.0)
