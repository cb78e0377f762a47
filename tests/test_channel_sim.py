"""Channels, Monte-Carlo harness, exponents and union bound."""

import math
import tracemalloc

import numpy as np
import pytest

from cssconcat.channel_sim import (
    AdditiveChannel,
    capacity,
    concat_exponent,
    entropy_q,
    mc_error_rate,
    random_coding_exponent,
    sample_error,
    simplex_grid_exponent,
    union_bound_pe,
    wilson_interval,
)
from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate
from cssconcat.decode import DecoderContext
from cssconcat.errors import DomainError, EmptyFeasibleSet
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import nested_grs_pair

F2 = Field(2)


def test_channel_validation():
    with pytest.raises(DomainError):
        AdditiveChannel(F2, [0.5, 0.6])
    with pytest.raises(DomainError):
        AdditiveChannel(F2, [1.5, -0.5])
    ch = AdditiveChannel.symmetric(Field(2, 2), 0.03)
    assert abs(ch.probs.sum() - 1.0) < 1e-12
    assert ch.probs[1] == pytest.approx(0.01)


def test_sample_point_mass():
    ch = AdditiveChannel(F2, [1.0, 0.0])
    assert not sample_error(ch, 100, 3).any()


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


def test_mc_chunk_invariance():
    """Per-trial substreams: chunking must not change the result."""
    ctx = _ctx_12_2()
    ch = AdditiveChannel.symmetric(F2, 0.02)
    r1 = mc_error_rate(ctx, ch, 600, 5, chunk=37)
    r2 = mc_error_rate(ctx, ch, 600, 5, chunk=600)
    assert r1.failures == r2.failures


def test_mc_heap_holds_narrow_codes():
    """Codes stay in the field's dtype from sampling to decoding: one
    512-trial call on [[90,28]] peaks within 1 MB of its start (about 0.4 MB;
    1.9 MB with int64 codes).  A first call gathers the decoder's lazy
    symbol-check matrix Y."""
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    cp = concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)
    assert cp.Ho1.dtype == F2.dtype
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
