"""Two-stage decoding: guarantees, failure flags, success oracle."""

import itertools

import numpy as np
import pytest

from cssconcat.channel_sim import AdditiveChannel, mc_error_rate
from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate
from cssconcat.decode import (
    DecoderContext,
    full_syndrome,
    success_oracle,
    two_stage_decode,
)
from cssconcat.errors import DomainError
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import nested_grs_pair

F2 = Field(2)


def _cp_12_2(K1=1, K2=3):
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    return concatenate(inner, nested_grs_pair(e4, 3, K1, K2), e4)


def _cp_90_28():
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    return concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)


def test_zero_error_both_sides():
    cp = _cp_12_2(2, 2)
    for side in (1, 2):
        ctx = DecoderContext(cp, side=side)
        e = np.zeros(12, dtype=np.int64)
        est, ok = two_stage_decode(ctx, full_syndrome(ctx, e))
        assert ok and success_oracle(ctx, e, est)


def test_exhaustive_one_bad_block():
    """Outer t=1: every error confined to a single inner block is corrected."""
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    for block in range(3):
        for pattern in itertools.product(range(2), repeat=4):
            e = np.zeros(12, dtype=np.int64)
            e[block * 4:(block + 1) * 4] = pattern
            est, ok = two_stage_decode(ctx, full_syndrome(ctx, e))
            assert ok
            assert success_oracle(ctx, e, est)


def test_exhaustive_one_bad_block_side2():
    cp = _cp_12_2(3, 1)
    ctx = DecoderContext(cp, side=2)
    for block in range(3):
        for pattern in itertools.product(range(2), repeat=4):
            e = np.zeros(12, dtype=np.int64)
            e[block * 4:(block + 1) * 4] = pattern
            est, ok = two_stage_decode(ctx, full_syndrome(ctx, e))
            assert ok and success_oracle(ctx, e, est)


def test_guaranteed_region_90_28():
    """t=2 outer: any two corrupted blocks are always recovered."""
    cp = _cp_90_28()
    ctx = DecoderContext(cp, side=1)
    rng = np.random.default_rng(33)
    for _ in range(300):
        e = np.zeros(90, dtype=np.int64)
        blocks = rng.choice(15, size=2, replace=False)
        for b in blocks:
            pattern = rng.integers(0, 2, size=6)
            e[b * 6:(b + 1) * 6] = pattern
        est, ok = two_stage_decode(ctx, full_syndrome(ctx, e))
        assert success_oracle(ctx, e, est)


def test_failure_flag_on_uncorrectable():
    """With >t corrupted blocks the decoder flags failure or miscorrects,
    and the oracle never reports spurious success for a flagged failure path."""
    cp = _cp_90_28()
    ctx = DecoderContext(cp, side=1)
    rng = np.random.default_rng(34)
    saw_flag = False
    for _ in range(200):
        e = np.zeros(90, dtype=np.int64)
        blocks = rng.choice(15, size=7, replace=False)
        for b in blocks:
            e[b * 6 + rng.integers(0, 6)] = 1
        est, ok = two_stage_decode(ctx, full_syndrome(ctx, e))
        if not ok:
            saw_flag = True
            assert not success_oracle(ctx, e, est)
    assert saw_flag


def test_syndrome_length_validation():
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    with pytest.raises(DomainError):
        two_stage_decode(ctx, np.zeros(3, dtype=np.int64))


def test_side_without_decoder_rejected():
    from cssconcat.codes import LinearCode
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    D1, D2 = nested_grs_pair(e4, 3, 1, 3)
    cp = concatenate(inner, (D1.as_linear_code(), D2), e4)
    with pytest.raises(DomainError):
        DecoderContext(cp, side=1)


def test_oracle_accepts_stabilizer_shift():
    """Estimates differing from the truth by a dual-side codeword count as
    success."""
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    e = np.zeros(12, dtype=np.int64)
    e[0] = 1
    shift = cp.L2.H[0]
    assert success_oracle(ctx, e, F2.add(e, shift))
    # a shift outside the dual of L2 is a logical error
    for i in range(12):
        unit = np.zeros(12, dtype=np.int64)
        unit[i] = 1
        if not cp.L2.Hmat.span_contains(unit):
            assert not success_oracle(ctx, e, F2.add(e, unit))
            break
    else:  # pragma: no cover
        raise AssertionError("no unit vector outside the dual")


def test_reassemble_symbols_matches_dual_basis_sum():
    """Side 2 turns trace-dual coordinates c into sum_j c_j b'_j (b' the dual
    of the power basis); side 1 reads power-basis coordinates directly."""
    cp = _cp_90_28()
    ext = cp.ext
    dual = ext.dual_basis()
    rng = np.random.default_rng(8)
    resid = rng.integers(0, 2, size=(40, ext.k))
    ctx1, ctx2 = DecoderContext(cp, side=1), DecoderContext(cp, side=2)
    for c in resid:
        want = 0
        for cj, bj in zip(c, dual):
            want = ext.add(want, ext.mul(ext.embed(int(cj)), bj))
        assert ctx2.reassemble_symbols(c).tolist() == [want]
        assert ctx1.reassemble_symbols(c).tolist() == [int(ext.from_coords(c))]
    got = ctx2.reassemble_symbols(resid.reshape(-1))
    assert got.tolist() == [ctx2.reassemble_symbols(c)[0] for c in resid]


def test_mc_counts_pinned_90_28():
    """Failure counts for a fixed seed; any change to the decoder or the
    trial streams that alters them is a behaviour change."""
    cp = _cp_90_28()
    ch = AdditiveChannel.symmetric(F2, 0.01)
    for side, want in ((1, (13, 9)), (2, (13, 11))):
        r = mc_error_rate(DecoderContext(cp, side=side), ch, 200, 7)
        assert (r.failures, r.outer_decode_failures) == want
        assert r.inner_block_rate == 164 / (200 * 15)  # 164 bad inner blocks
