"""Two-stage decoding: guarantees, failure flags, success oracle."""

import itertools

import numpy as np
import pytest

from cssconcat.channel_sim import AdditiveChannel, mc_error_rate
from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate, pi_map
from cssconcat.decode import (
    DecoderContext,
    decode_batch,
    success_oracle,
    success_oracle_rows,
    two_stage_decode,
)
from cssconcat.errors import DecodeFailure, DomainError
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import nested_grs_pair

F2 = Field(2)
F3 = Field(3)


def _cp_12_2(K1=1, K2=3):
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    return concatenate(inner, nested_grs_pair(e4, 3, K1, K2), e4)


def _cp_90_28():
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    return concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)


def _cp_96_32_gf3():
    """Inner [[6,4]] over GF(3), outer RS[16,12] over GF(81): t = 2 per side."""
    inner = bvector_pair(F3, [1] * 6, [1] * 6)
    e81 = Extension(F3, 4)
    return concatenate(inner, nested_grs_pair(e81, 16, 12, 12), e81)


def test_zero_error_both_sides():
    cp = _cp_12_2(2, 2)
    for side in (1, 2):
        ctx = DecoderContext(cp, side=side)
        e = np.zeros(12, dtype=np.int64)
        est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
        assert ok and success_oracle(ctx, e, est)


def test_exhaustive_one_bad_block():
    """Outer t=1: every error confined to a single inner block is corrected."""
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    for block in range(3):
        for pattern in itertools.product(range(2), repeat=4):
            e = np.zeros(12, dtype=np.int64)
            e[block * 4:(block + 1) * 4] = pattern
            est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
            assert ok
            assert success_oracle(ctx, e, est)


def test_exhaustive_one_bad_block_side2():
    cp = _cp_12_2(3, 1)
    ctx = DecoderContext(cp, side=2)
    for block in range(3):
        for pattern in itertools.product(range(2), repeat=4):
            e = np.zeros(12, dtype=np.int64)
            e[block * 4:(block + 1) * 4] = pattern
            est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
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
        est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
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
        est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
        if not ok:
            saw_flag = True
            assert not success_oracle(ctx, e, est)
    assert saw_flag


def test_syndrome_length_validation():
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    with pytest.raises(DomainError):
        two_stage_decode(ctx, np.zeros(3, dtype=np.int64))
    with pytest.raises(DomainError):
        decode_batch(ctx, np.zeros(ctx.Ho.shape[0], dtype=np.int64))  # not rows
    # entries outside [0, q) would wrap around the packed leader index
    for bad in (-1, 2):
        s = np.zeros((3, ctx.Ho.shape[0]), dtype=np.int64)
        s[1, 0] = bad
        with pytest.raises(DomainError):
            decode_batch(ctx, s)
        with pytest.raises(DomainError):
            two_stage_decode(ctx, s[1])


def test_table_and_stage1_reject_entries_outside_field():
    """A -1 used to wrap around to the leader of syndrome 1, a 2 to raise a
    bare IndexError."""
    cp = _cp_12_2(2, 2)
    for side in (1, 2):
        ctx = DecoderContext(cp, side=side)
        m = ctx.table.m
        for bad in (-1, 2):
            syn = np.zeros(m, dtype=np.int64)
            syn[0] = bad
            with pytest.raises(DomainError):
                ctx.table.pack(syn)
            with pytest.raises(DomainError):
                ctx.table.leader(syn)
            upper = np.zeros((2, ctx.upper_len), dtype=np.int64)
            upper[1, -1] = bad
            with pytest.raises(DomainError):
                ctx.stage1(upper)
        with pytest.raises(DomainError):
            ctx.table.leader(np.zeros(m + 1, dtype=np.int64))
        with pytest.raises(DomainError):
            ctx.stage1(np.zeros(ctx.upper_len - 1, dtype=np.int64))
        assert np.array_equal(ctx.table.leader(np.ones(m, dtype=np.int64)),
                              ctx.table.leaders[int(ctx.table.qpows.sum())])


def test_entries_that_narrowing_would_wrap_are_rejected():
    """257 and -129 are the int8 codes 1 and 127, and 2**64 - 255 in uint64
    is 1: each is checked against [0, q) in its own dtype first.  bool rows
    are the codes 0 and 1 and decode like their int64 twins."""
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    assert ctx.field.dtype == np.int8
    zero = np.zeros((2, 12), dtype=np.int64)
    bad_values = [np.int64(257), np.int64(-129), np.uint64(2), np.uint64(2 ** 64 - 255)]
    for bad in bad_values:
        S = np.zeros((2, ctx.Ho.shape[0]), dtype=bad.dtype)
        S[1, 0] = bad
        with pytest.raises(DomainError):
            decode_batch(ctx, S)
        E = zero.astype(bad.dtype)
        E[1, 3] = bad
        with pytest.raises(DomainError):
            success_oracle_rows(ctx, E, zero)
        with pytest.raises(DomainError):
            success_oracle_rows(ctx, zero, E)
    E = np.zeros((3, 12), dtype=bool)
    E[1, 4] = E[2, [0, 9]] = True
    S = ctx.full_syndrome(E)
    got, ok = decode_batch(ctx, S.astype(bool))
    want, want_ok = decode_batch(ctx, S.astype(np.int64))
    assert got.dtype == np.int8 and np.array_equal(got, want)
    assert np.array_equal(ok, want_ok)
    assert np.array_equal(success_oracle_rows(ctx, E, got),
                          success_oracle_rows(ctx, E.astype(np.int64), want))


def test_oracle_rejects_mismatched_lengths():
    """A length-1 error vector used to broadcast against the estimate and
    pass."""
    cp = _cp_12_2(1, 3)
    ctx = DecoderContext(cp, side=1)
    zero = np.zeros(12, dtype=np.int64)
    with pytest.raises(DomainError):
        success_oracle(ctx, [0], zero)
    with pytest.raises(DomainError):
        success_oracle(ctx, zero, [0])
    with pytest.raises(DomainError):
        success_oracle_rows(ctx, np.zeros((3, 1), dtype=np.int64),
                            np.zeros((3, 12), dtype=np.int64))
    with pytest.raises(DomainError):
        success_oracle_rows(ctx, np.zeros((2, 12), dtype=np.int64),
                            np.zeros((3, 12), dtype=np.int64))
    assert success_oracle(ctx, zero, zero)


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
    with pytest.raises(DomainError):
        success_oracle(ctx, e[:-1], e[:-1])
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


def _reference_two_stage_decode(ctx, s):
    """The scalar two-stage decoder, one syndrome at a time (the reference
    for :func:`decode_batch`)."""
    s = np.asarray(s, dtype=np.int64).reshape(-1)
    upper, lower = s[: ctx.upper_len], s[ctx.upper_len:]
    blocks = upper.reshape(ctx.N, ctx.table.m)
    ehat = ctx.table.leaders[ctx.table.pack(blocks)].reshape(-1)
    resid = ctx.field.sub(lower, ctx.field.matmul(ehat, ctx.Gp.T))
    coords = resid.reshape(-1, ctx.k)
    if ctx.side == 2:
        coords = ctx.field.matmul(coords, ctx.dual_coords)
    try:
        x = ctx.grs.bd_decode(ctx.ext.from_coords(coords))
    except DecodeFailure:
        return ehat, False
    if x.any():
        ehat = ctx.field.add(ehat, pi_map(ctx.side, ctx.cp.inner, ctx.ext, x))
    return ehat, True


def _mixed_errors(ctx, rng, rows):
    """Rows cycling through: a stabilizer element (no outer work), 1..t
    corrupted blocks, and t + 4 corrupted blocks (beyond the outer radius)."""
    f, N, n = ctx.field, ctx.N, ctx.n
    t = (ctx.grs.N - ctx.grs.K) // 2
    stab = (ctx.cp.L2 if ctx.side == 1 else ctx.cp.L1).H
    E = np.zeros((rows, N * n), dtype=np.int64)
    for i in range(rows):
        kind = i % 3
        if kind == 0:
            E[i] = f.matmul(rng.integers(0, f.q, size=stab.shape[0]), stab)
            continue
        bad = int(rng.integers(1, t + 1)) if kind == 1 else t + 4
        for b in rng.choice(N, size=bad, replace=False):
            E[i, b * n:(b + 1) * n] = rng.integers(0, f.q, size=n)
    return E


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3])
@pytest.mark.parametrize("side", [1, 2])
def test_decode_batch_matches_scalar_reference(make_cp, side):
    ctx = DecoderContext(make_cp(), side=side)
    E = _mixed_errors(ctx, np.random.default_rng(40 + side), 90)
    S = ctx.full_syndrome(E)
    ref = [_reference_two_stage_decode(ctx, s) for s in S]
    for rows in (0, 1, len(S)):
        Ehat, outer_ok = decode_batch(ctx, S[:rows])
        assert Ehat.shape == (rows, ctx.N * ctx.n) and outer_ok.shape == (rows,)
        for i in range(rows):
            assert np.array_equal(Ehat[i], ref[i][0]) and outer_ok[i] == ref[i][1]
    # the batch covers every path through the outer stage
    f = ctx.field
    stage1 = ctx.stage1(S[:, : ctx.upper_len])
    needs_outer = f.sub(S[:, ctx.upper_len:], f.matmul(stage1, ctx.Gp.T)).any(axis=1)
    corrected = (Ehat != stage1).any(axis=1)
    assert (~needs_outer).any() and (outer_ok & corrected).any() and (~outer_ok).any()
    est, ok = two_stage_decode(ctx, S[4])
    assert np.array_equal(est, ref[4][0]) and ok == ref[4][1]
    assert success_oracle(ctx, E[4], est) == success_oracle_rows(ctx, E, Ehat)[4]


def test_mc_counts_pinned_90_28():
    """Failure counts for a fixed seed; any change to the decoder or the
    trial streams that alters them is a behaviour change."""
    cp = _cp_90_28()
    ch = AdditiveChannel.symmetric(F2, 0.01)
    for side, want in ((1, (13, 9)), (2, (13, 11))):
        r = mc_error_rate(DecoderContext(cp, side=side), ch, 200, 7)
        assert (r.failures, r.outer_decode_failures) == want
        assert r.inner_block_rate == 164 / (200 * 15)  # 164 bad inner blocks


def test_mc_counts_pinned_96_32_gf3():
    """Odd-characteristic counterpart of the pinned [[90,28]] counts."""
    cp = _cp_96_32_gf3()
    ch = AdditiveChannel.symmetric(F3, 0.01)
    for side, want in ((1, (15, 14)), (2, (15, 15))):
        r = mc_error_rate(DecoderContext(cp, side=side), ch, 200, 7)
        assert (r.failures, r.outer_decode_failures) == want
        assert r.inner_block_rate == 178 / (200 * 16)  # 178 bad inner blocks
