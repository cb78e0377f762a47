"""Two-stage decoding: guarantees, failure flags, success oracle."""

import io
import itertools
import tracemalloc

import numpy as np
import pytest

from cssconcat import channel_sim, cli, codes, fileio, matrix
from cssconcat.channel_sim import AdditiveChannel, _sample_block, mc_error_rate
from cssconcat.codes import bvector_pair
from cssconcat.concat import concatenate, pi_map
from cssconcat.decode import (
    DecoderContext,
    decode_batch,
    success_oracle,
    success_oracle_rows,
    two_stage_decode,
)
from cssconcat.errors import DecodeFailure, DomainError, TooLarge
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import nested_grs_pair
import references
from references import checked_verify_duality, dense_full_syndrome, pi_rows, wide_arrays

F2 = Field(2)
F3 = Field(3)
F4 = Field(2, 2)


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


def _cp_60_14_gf4():
    """Inner [[4,2]] over GF(4), outer RS[15,11] over GF(16): t = 2 per side."""
    inner = bvector_pair(F4, [1] * 4, [1] * 4)
    e16 = Extension(F4, 2)
    return concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)


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
        decode_batch(ctx, np.zeros(ctx.syndrome_len, dtype=np.int64))  # not rows
    # entries outside [0, q) would wrap around the packed leader index
    for bad in (-1, 2):
        s = np.zeros((3, ctx.syndrome_len), dtype=np.int64)
        s[1, 0] = bad
        with pytest.raises(DomainError):
            decode_batch(ctx, s)
        with pytest.raises(DomainError):
            two_stage_decode(ctx, s[1])


def test_full_syndrome_rejects_entries_outside_field():
    """Over GF(2) an error entry 2 or 0.5 once gave the syndrome of 0, and 3
    or -1 that of 1; over GF(3) a 4 gave that of 1.  Each raises DomainError
    now, and codes of any dtype give the syndrome of their values."""
    for cp, bads in ((_cp_12_2(1, 3), (2, 3, -1, 0.5)), (_cp_96_32_gf3(), (4,))):
        ctx = DecoderContext(cp, side=1)
        for bad in bads:
            E = np.zeros((2, cp.block_length))
            E[1, 0] = bad
            for e in (E, E[1]):
                with pytest.raises(DomainError):
                    ctx.full_syndrome(e)
        E = np.zeros((2, cp.block_length), dtype=np.int64)
        E[1, [0, 5]] = 1
        want = (E @ cp.parity_check(1).T.astype(np.int64)) % ctx.field.p
        for e in (E, E.astype(np.int8), E.astype(bool), E.astype(float)):
            got = ctx.full_syndrome(e)
            assert got.dtype == ctx.field.dtype and np.array_equal(got, want)
            assert np.array_equal(ctx.full_syndrome(e[1]), want[1])


@pytest.mark.parametrize("make_cp", [_cp_12_2, _cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
@pytest.mark.parametrize("side", [1, 2])
def test_full_syndrome_matches_dense_product(make_cp, side):
    """full_syndrome, formed from the block symbols, equals the dense
    E.Ho^T over GF(2), GF(3) and GF(4) inner fields, on batches of 0, 1 and
    60 rows of sparse and dense errors and on a single vector; _cp_12_2 has
    no Hout rows on side 2, so no lower syndrome there."""
    ctx = DecoderContext(make_cp(), side=side)
    f, L = ctx.field, ctx.N * ctx.n
    rng = np.random.default_rng(30 + side)
    E = rng.integers(0, f.q, size=(60, L)) * (rng.random((60, L)) < [[0.02], [0.3], [1.0]] * 20)
    want = dense_full_syndrome(ctx, E)
    for rows in (0, 1, len(E)):
        got = ctx.full_syndrome(E[:rows])
        assert got.shape == (rows, ctx.syndrome_len) and got.dtype == f.dtype
        assert np.array_equal(got, want[:rows])
    assert np.array_equal(ctx.full_syndrome(E[1]), want[1])


def test_miss_and_block_symbols_reject_entries_outside_field():
    """miss_symbols once read an error entry 2 as 0 on [[90,28]], which left
    the row's symbols all zero, and -1 as the symbol 15; on [[480,160]] over
    GF(3) it read a 5 as 2.  It and block_symbols raise DomainError on such
    rows now, as full_syndrome does, in int64 and in the field's dtype, and
    read codes of any integer dtype by their values."""
    e81 = Extension(F3, 4)
    cp_480 = concatenate(bvector_pair(F3, [1] * 6, [1] * 6), nested_grs_pair(e81, 80, 60, 60), e81)
    for cp, bads in ((_cp_90_28(), (2, -1)), (cp_480, (5, -1))):
        for side in (1, 2):
            ctx = DecoderContext(cp, side=side)
            E = np.zeros((3, cp.block_length), dtype=np.int64)
            E[1, [0, 7, 8]] = 1
            want = ctx.miss_symbols(E)
            for dtype in (ctx.field.dtype, np.uint8, np.int16):
                assert np.array_equal(ctx.miss_symbols(E.astype(dtype)), want)
            for bad in bads:
                B = E.copy()
                B[2, 3] = bad
                for call in (ctx.miss_symbols, ctx.block_symbols):
                    for rows in (B, B.astype(ctx.field.dtype)):
                        with pytest.raises(DomainError, match="error entries"):
                            call(rows)


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
                ctx.table.leaders[ctx.table.pack(syn)]
            upper = np.zeros((2, ctx.upper_len), dtype=np.int64)
            upper[1, -1] = bad
            with pytest.raises(DomainError):
                ctx.stage1(upper)
        with pytest.raises(DomainError):
            ctx.table.leaders[ctx.table.pack(np.zeros(m + 1, dtype=np.int64))]
        with pytest.raises(DomainError):
            ctx.stage1(np.zeros(ctx.upper_len - 1, dtype=np.int64))
        assert np.array_equal(ctx.table.leaders[ctx.table.pack(np.ones(m, dtype=np.int64))],
                              ctx.table.leaders[sum(ctx.field.q ** j for j in range(m))])


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
        S = np.zeros((2, ctx.syndrome_len), dtype=bad.dtype)
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
        if not cp.L2.Hmat.span_contains_rows(unit[None, :])[0]:
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
            want = ext.as_field().add(want, ext.as_field().mul(int(cj), bj))
        assert ctx2.reassemble_symbols(c).tolist() == [want]
        assert ctx1.reassemble_symbols(c).tolist() == [int(ext.from_coords(c))]
    got = ctx2.reassemble_symbols(resid.reshape(-1))
    assert got.tolist() == [ctx2.reassemble_symbols(c)[0] for c in resid]


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
def test_reassemble_symbols_side2_matches_dual_basis_product(make_cp):
    """Side 2 reads its residual through the kept inverse of the packed
    dual table; the reference multiplies the trace-dual coordinates by the
    power-basis coordinates of the dual basis and packs the result."""
    cp = make_cp()
    ext, ctx = cp.ext, DecoderContext(cp, side=2)
    f = ctx.field
    B = ext.coords(ext.dual_basis())
    resid = np.random.default_rng(21).integers(0, f.q, size=(30, cp.N * ext.k))
    want = ext.from_coords(f.matmul(resid.reshape(-1, ext.k), B))
    assert np.array_equal(ctx.reassemble_symbols(resid), want)
    assert np.array_equal(ctx.reassemble_symbols(ext.dual_table), np.arange(ext.Q))


def _lower_check(ctx):
    """The side's expanded outer check Gp, the lower rows of a freshly built
    structured check."""
    return ctx.cp.parity_check(ctx.side)[ctx.upper_len:]


def _reference_two_stage_decode(ctx, s, Gp):
    """The scalar two-stage decoder, one syndrome at a time (the reference
    for :func:`decode_batch`), with ``Gp`` from :func:`_lower_check`."""
    s = np.asarray(s, dtype=np.int64).reshape(-1)
    upper, lower = s[: ctx.upper_len], s[ctx.upper_len:]
    blocks = upper.reshape(ctx.N, ctx.table.m)
    ehat = ctx.table.leaders[ctx.table.pack(blocks)].reshape(-1)
    resid = ctx.field.sub(lower, ctx.field.matmul(ehat, Gp.T))
    coords = resid.reshape(-1, ctx.k)
    if ctx.side == 2:  # trace-dual coordinates: sum_j c_j b'_j, b' the dual basis
        coords = ctx.field.matmul(coords, ctx.ext.coords(ctx.ext.dual_basis()))
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


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4])
@pytest.mark.parametrize("side", [1, 2])
def test_decode_batch_matches_scalar_reference(make_cp, side):
    """Mixed errors' syndromes and uniformly random syndromes decode as the
    dense scalar reference decodes them, in batches of 0, 1 and all rows."""
    ctx = DecoderContext(make_cp(), side=side)
    rng = np.random.default_rng(40 + side)
    E = _mixed_errors(ctx, rng, 90)
    S = ctx.full_syndrome(E)
    Gp = _lower_check(ctx)
    for T in (S, rng.integers(0, ctx.field.q, size=S.shape)):
        ref = [_reference_two_stage_decode(ctx, s, Gp) for s in T]
        for rows in (0, 1, len(T)):
            Ehat, outer_ok = decode_batch(ctx, T[:rows])
            assert Ehat.shape == (rows, ctx.N * ctx.n) and outer_ok.shape == (rows,)
            for i in range(rows):
                assert np.array_equal(Ehat[i], ref[i][0]) and outer_ok[i] == ref[i][1]
    # the mixed batch covers every path through the outer stage
    Ehat, outer_ok = decode_batch(ctx, S)
    f = ctx.field
    stage1 = ctx.stage1(S[:, : ctx.upper_len])
    needs_outer = f.sub(S[:, ctx.upper_len:], f.matmul(stage1, Gp.T)).any(axis=1)
    corrected = (Ehat != stage1).any(axis=1)
    assert (~needs_outer).any() and (outer_ok & corrected).any() and (~outer_ok).any()
    est, ok = two_stage_decode(ctx, S[4])
    assert np.array_equal(est, Ehat[4]) and ok == outer_ok[4]
    assert success_oracle(ctx, E[4], est) == success_oracle_rows(ctx, E, Ehat)[4]


def test_decode_batch_forms_no_nN_wide_product(monkeypatch):
    """decode_batch hands Field.matmul no operand nN columns wide: the
    outer syndromes come from the leader symbols over GF(Q), not from the
    residual Ehat.Gp^T."""
    cp = _cp_90_28()
    ctxs = [DecoderContext(cp, side=side) for side in (1, 2)]
    widths, matmul = [], Field._matmul  # every product, the GRS codes' included

    def spy(self, A, B):
        widths.append(max(np.shape(A)[-1:] + np.shape(B)[1:]))
        return matmul(self, A, B)
    monkeypatch.setattr(Field, "_matmul", spy)
    rng = np.random.default_rng(5)
    for ctx in ctxs:
        S = rng.integers(0, 2, size=(50, ctx.syndrome_len))
        assert not decode_batch(ctx, S)[1].all()
    assert widths and max(widths) < cp.N * cp.n


@pytest.mark.parametrize("make_cp", [_cp_90_28, _cp_96_32_gf3])
def test_decoding_builds_no_structured_check(monkeypatch, tmp_path, make_cp):
    """DecoderContext, mc_error_rate, decode_batch, success_oracle_rows and
    full_syndrome take their lengths from N m + k (N - K) and N n, and
    verify_duality builds each Ho_i as a local: none of them, nor CLI
    decode --syndrome or --error or concat --verify --out, leaves an array
    nN wide on the pair or a check on a context."""
    cp = make_cp()
    ctxs = [DecoderContext(cp, side=side) for side in (1, 2)]
    rng = np.random.default_rng(9)
    f = cp.inner.field
    for ctx in ctxs:
        assert ctx.syndrome_len == ctx.N * ctx.table.m + ctx.k * len(ctx.grs.H)
        mc_error_rate(ctx, AdditiveChannel.symmetric(f, 0.02), 32, 1)
        Ehat, _ = decode_batch(ctx, rng.integers(0, f.q, size=(8, ctx.syndrome_len)))
        success_oracle_rows(ctx, np.zeros_like(Ehat), Ehat)
        assert ctx.full_syndrome(Ehat).shape == (8, ctx.syndrome_len)
        with pytest.raises(DomainError):
            decode_batch(ctx, np.zeros((1, ctx.syndrome_len + 1), dtype=np.int64))
        with pytest.raises(DomainError):
            success_oracle_rows(ctx, Ehat[:, 1:], Ehat[:, 1:])
        with pytest.raises(DomainError):
            ctx.full_syndrome(Ehat[:, 1:])
    assert checked_verify_duality(cp)
    assert wide_arrays(cp) == [] and not any("Ho" in vars(ctx) for ctx in ctxs)

    built = []

    def build(cfg):
        built.append(make_cp())
        return built[-1]
    monkeypatch.setattr(cli, "_build_concat", build)
    syn, err = tmp_path / "s.txt", tmp_path / "e.txt"
    fileio.write_vector(syn, [0] * ctxs[1].syndrome_len)
    e = np.zeros(cp.block_length, dtype=np.int64)
    e[[0, 7]] = 1
    fileio.write_vector(err, e)
    for argv, head in ((["decode", "--config", "c.cfg", "--side", "2", "--syndrome", str(syn)],
                        "outer_ok 1\n"),
                       (["decode", "--config", "c.cfg", "--error", str(err)],
                        "outer_ok 1 success 1\n"),
                       (["--out", str(tmp_path / "cc"), "concat", "--config", "c.cfg",
                         "--verify"], "[[")):
        out = io.StringIO()
        assert cli.main(argv, out=out) == 0 and out.getvalue().startswith(head), argv
        assert wide_arrays(built[-1]) == [], argv
    assert len(built) == 3


def test_mc_counts_pinned_90_28():
    """Failure counts for a fixed seed; any change to the decoder or the
    trial streams that alters them is a behaviour change."""
    cp = _cp_90_28()
    ch = AdditiveChannel.symmetric(F2, 0.01)
    for side, want in ((1, (9, 7)), (2, (9, 4))):
        r = mc_error_rate(DecoderContext(cp, side=side), ch, 200, 7)
        assert (r.failures, r.outer_decode_failures) == want
        assert r.inner_block_rate == 145 / (200 * 15)  # 145 bad inner blocks


def test_mc_counts_pinned_96_32_gf3():
    """Odd-characteristic counterpart of the pinned [[90,28]] counts."""
    cp = _cp_96_32_gf3()
    ch = AdditiveChannel.symmetric(F3, 0.01)
    for side, want in ((1, (10, 10)), (2, (10, 10))):
        r = mc_error_rate(DecoderContext(cp, side=side), ch, 200, 7)
        assert (r.failures, r.outer_decode_failures) == want
        assert r.inner_block_rate == 151 / (200 * 16)  # 151 bad inner blocks


# -- the block-level success test against the dense elimination ----------------

ORACLE_CASES = [_cp_90_28, _cp_96_32_gf3, _cp_60_14_gf4]


def _dense_oracle(ctx, E, estimates):
    """The reference for success_oracle_rows: the difference lies in the row
    space of the opposite structured check, dual(L_o), by elimination."""
    Ho_other = ctx.cp.parity_check(3 - ctx.side)
    return matrix.MatGF(ctx.field, Ho_other).span_contains_rows(ctx.field.sub(estimates, E))


def _logical_errors(ctx, rng, rows):
    """pi_side of random words of the side's own outer code, each plus one
    corrupted block: the outer stage corrects the block and succeeds, and
    the estimate is wrong unless the word lies in dual(D_o)."""
    f, fQ, n = ctx.field, ctx.ext.as_field(), ctx.n
    D = ctx.cp.D1 if ctx.side == 1 else ctx.cp.D2
    X = fQ.matmul(rng.integers(0, fQ.q, size=(rows, D.K)), D.G)
    E = pi_rows(ctx.side, ctx.cp.inner, ctx.ext, X).astype(np.int64)
    for i, b in enumerate(rng.integers(0, ctx.N, size=rows)):
        E[i, b * n:(b + 1) * n] = f.add(E[i, b * n:(b + 1) * n], rng.integers(0, f.q, size=n))
    return E


def _dual_shift(ctx, rng, rows):
    """Random elements of dual(L_o), the row space of the opposite
    structured check: shifting an estimate by one keeps its verdict."""
    f, Ho_other = ctx.field, ctx.cp.parity_check(3 - ctx.side)
    return f.matmul(rng.integers(0, f.q, size=(rows, len(Ho_other))), Ho_other)


def _oracle_batch(ctx, rng):
    """Decoded _mixed_errors and _logical_errors rows: ``(E, Ehat, outer_ok)``."""
    E = np.concatenate([_mixed_errors(ctx, rng, 90), _logical_errors(ctx, rng, 12)])
    Ehat, outer_ok = decode_batch(ctx, ctx.full_syndrome(E))
    return E, Ehat, outer_ok


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
@pytest.mark.parametrize("side", [1, 2])
def test_block_oracle_matches_dense_reference(make_cp, side):
    """Decoded batches with outer failures and miscorrections, and the same
    estimates shifted by random elements of dual(L_o): degenerate successes
    whose blocks have nonzero g-coefficients, so test (ii) decides them."""
    ctx = DecoderContext(make_cp(), side=side)
    f = ctx.field
    rng = np.random.default_rng(60 + side)
    E, Ehat, outer_ok = _oracle_batch(ctx, rng)
    want = _dense_oracle(ctx, E, Ehat)
    assert np.array_equal(success_oracle_rows(ctx, E, Ehat), want)
    assert want.any() and (~outer_ok).any() and (outer_ok & ~want).any()
    shift = _dual_shift(ctx, rng, len(E))
    ids, H, W = ctx.block_symbols(shift)
    w = W.reshape(-1)[ids]
    assert not H.any() and set(ids[w != 0] // ctx.N) == set(range(len(E)))
    shifted = f.add(Ehat, shift)
    assert np.array_equal(_dense_oracle(ctx, E, shifted), want)
    assert np.array_equal(success_oracle_rows(ctx, E, shifted), want)
    for rows in (0, 1):
        assert np.array_equal(success_oracle_rows(ctx, E[:rows], shifted[:rows]), want[:rows])
    with pytest.raises(DomainError):  # a single vector is not a batch of rows
        success_oracle_rows(ctx, E[0], shifted[0])


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
@pytest.mark.parametrize("side", [1, 2])
def test_block_oracle_inner_and_symbol_failures(make_cp, side):
    """A unit vector fails the inner check (i); pi_side(z) passes (i), and
    fails the symbol check (ii) exactly when z is not in dual(D_o), which
    the rows of Hout_o span."""
    ctx = DecoderContext(make_cp(), side=side)
    f, fQ, L = ctx.field, ctx.ext.as_field(), ctx.N * ctx.n
    rng = np.random.default_rng(70 + side)
    Hout_o = ctx.cp.Hout2 if side == 1 else ctx.cp.Hout1
    Z = np.concatenate([rng.integers(0, fQ.q, size=(4, ctx.N)),
                        fQ.matmul(rng.integers(0, fQ.q, size=(4, len(Hout_o))), Hout_o)])
    V = np.concatenate([np.eye(1, L, 0, dtype=np.int64), np.eye(1, L, L - 1, dtype=np.int64),
                        pi_rows(side, ctx.cp.inner, ctx.ext, Z)])
    zero = np.zeros_like(V)
    ids, H, W = ctx.block_symbols(f.sub(V, zero))
    w = W.reshape(-1)[ids]
    rows = ids // ctx.N
    assert set(rows[H.any(axis=1)]) == {0, 1} and set(rows[w != 0]) >= set(range(2, 10))
    want = _dense_oracle(ctx, zero, V)
    assert want.tolist() == [False] * 6 + [True] * 4
    assert np.array_equal(success_oracle_rows(ctx, zero, V), want)
    assert [success_oracle(ctx, zero[i], V[i]) for i in range(len(V))] == want.tolist()


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
def test_block_oracle_across_chunk_boundaries(monkeypatch, make_cp):
    """With 256-byte chunks the block symbols are made a few blocks a slice,
    and the symbol product by D_o.G^T runs a row a slice for every row of
    two or more nonzero symbols, as the estimates shifted by elements of
    dual(L_o) all are."""
    ctx = DecoderContext(make_cp(), side=1)
    rng = np.random.default_rng(80)
    E, Ehat, _ = _oracle_batch(ctx, rng)
    shifted = ctx.field.add(Ehat, _dual_shift(ctx, rng, len(E)))
    want = _dense_oracle(ctx, E, shifted)
    monkeypatch.setattr(matrix, "_CHUNK_BYTES", 256)
    assert matrix.chunk_rows(ctx.k) < len(E) and matrix.chunk_rows(2 * ctx.cp.D2.K) == 1
    assert np.array_equal(success_oracle_rows(ctx, E, shifted), want)
    assert np.array_equal(success_oracle_rows(ctx, E, Ehat), want)


@pytest.mark.parametrize("side", [1, 2])
def test_first_oracle_row_heap_is_small(side):
    """The first one-row call on [[2550,1016]], its tables built inside it,
    peaks within 1 MB of its start (about 0.5 MB): the estimate, shifted by
    an element of dual(L_o), has nonzero symbols in nearly every block, so
    it meets D_o.G^T; no GF(q) matrix k N columns wide is gathered."""
    ext = Extension(F2, 8)
    cp = concatenate(bvector_pair(F2, [1] * 10, [1] * 10),
                     nested_grs_pair(ext, 255, 191, 191), ext)
    ctx = DecoderContext(cp, side=side)
    rng = np.random.default_rng(90 + side)
    e = (rng.random((1, cp.block_length)) < 0.005).astype(F2.dtype)
    estimate = F2.add(e, _dual_shift(ctx, rng, 1))
    wrong = estimate.copy()
    wrong[0, 0] ^= 1
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ok = success_oracle_rows(ctx, e, estimate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok.tolist() == [True] and peak - start <= 1.0e6
    assert np.count_nonzero(ctx.block_symbols(F2.sub(estimate, e))[2]) > cp.N // 2
    assert success_oracle_rows(ctx, e, wrong).tolist() == [False]


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
@pytest.mark.parametrize("side", [1, 2])
def test_inner_block_rate_matches_dense_count(monkeypatch, make_cp, side):
    """mc_error_rate counts a block bad when its g-coefficient is nonzero;
    the reference counts stage-1 misses outside the opposite inner dual by
    elimination, over the same trials drawn in one block."""
    monkeypatch.setattr(channel_sim, "_CHUNK", 64)
    ctx = DecoderContext(make_cp(), side=side)
    f, n = ctx.field, ctx.n
    ch = AdditiveChannel.symmetric(f, 0.03)
    trials = 150
    r = mc_error_rate(ctx, ch, trials, 5)
    E = _sample_block(ch, 5, 0, trials, ctx.N * n)
    Ehat = ctx.stage1(ctx.full_syndrome(E)[:, : ctx.upper_len])
    inner_dual = ctx.cp.inner.C2.Hmat if side == 1 else ctx.cp.inner.C1.Hmat
    bad = int((~inner_dual.span_contains_rows(f.sub(E, Ehat).reshape(-1, n))).sum())
    assert bad > 0 and r.inner_block_rate == bad / (trials * ctx.N)


def _same_outcomes(got, want):
    return all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
@pytest.mark.parametrize("side", [1, 2])
def test_score_matches_dense_outcomes(make_cp, side):
    """DecoderContext.score of the miss symbols of sampled trials is the
    dense pipeline's outcome, row by row and dtype by dtype, at p = 0.03,
    where failures, outer failures and miscorrections all occur.  0-row and
    all-zero inputs score as nothing bad and build no G^T."""
    ctx = DecoderContext(make_cp(), side=side)
    zero = np.zeros((5, ctx.N * ctx.n), dtype=ctx.field.dtype)
    for E in (zero[:0], zero):
        got = ctx.score(ctx.miss_symbols(E))
        assert "_Gt" not in vars(ctx.cp.D1) and "_Gt" not in vars(ctx.cp.D2)
        assert _same_outcomes(got, references.dense_outcomes(ctx, E))
        assert all(len(a) == len(E) and not a.any() for a in got)
    E = _sample_block(AdditiveChannel.symmetric(ctx.field, 0.03), 7, 0, 1000, ctx.N * ctx.n)
    failed, reason, miscorrected, bad = got = ctx.score(ctx.miss_symbols(E))
    assert _same_outcomes(got, references.dense_outcomes(ctx, E))
    assert failed.sum() > (reason != 0).sum() > 0 and miscorrected.any()
    assert not (miscorrected & ~failed).any() and not (failed & (bad == 0)).any()


def test_score_counts_mds_miscorrections_exactly():
    """Every weight-3 row of miss symbols on [[90,28]], side 1, against the
    decoder-error count of the MDS code RS[15,11] over GF(16), t = 2: each
    row fails, 450,450 by miscorrection and the 1,085,175 others by an
    outer decode failure.  A miscorrected row fails because X - z has
    weight at most 5, below the distance 12 of dual(D_o), so it is no
    stabilizer."""
    ctx = DecoderContext(_cp_90_28(), side=1)
    rows = failed = miscorrected = outer = 0
    for Z in codes._weight_patterns(15, 3, 16, ctx.ext.as_field().dtype, 1 << 16):
        f, reason, m, bad = ctx.score(Z)
        assert (bad == 3).all()
        rows += len(Z)
        failed += int(f.sum())
        miscorrected += int(m.sum())
        outer += int((reason != 0).sum())
    want = references.mds_miscorrections(15, 11, 16, 3)
    assert rows == failed == 1535625 and miscorrected == want == 450450
    assert outer == rows - miscorrected == 1085175


@pytest.mark.parametrize("make_cp", ORACLE_CASES)
def test_mc_path_runs_no_elimination(monkeypatch, make_cp):
    """Once the contexts are built, mc_error_rate eliminates nothing on
    either side, the first call that builds the leader symbols and the GRS
    codes' H^T included."""
    cp = make_cp()
    ctxs = [DecoderContext(cp, side=side) for side in (1, 2)]
    calls = []
    for kind, kernel in list(matrix._RREF.items()):
        def spy(f, a, kind=kind, kernel=kernel):
            calls.append((kind, a.shape))
            return kernel(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    ch = AdditiveChannel.symmetric(cp.inner.field, 0.03)
    for ctx in ctxs:
        assert "_leader_symbols" not in vars(ctx) and "_Ht" not in vars(ctx.grs)
        assert mc_error_rate(ctx, ch, 200, 3).failures > 0
        assert calls == []
        assert "_leader_symbols" in vars(ctx) and "_Ht" in vars(ctx.grs)


def _count_setup(monkeypatch, field, b1, b2):
    """``(inner, contexts, eliminations, tables)`` of the set-up of
    ``bvector_pair(field, b1, b2)``, ``concatenate`` with RS[15,11] and both
    decoder contexts: the elimination shapes and the CosetLeaderTables
    built, the extension and the outer pair made beforehand."""
    ext = Extension(field, len(b1) - 2)
    outer = nested_grs_pair(ext, 15, 11, 11)
    calls, tables = [], []
    for kind, kernel in list(matrix._RREF.items()):
        def spy(f, a, kernel=kernel):
            calls.append(a.shape)
            return kernel(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    init = codes.CosetLeaderTable.__init__

    def spy_init(self, *args, **kwargs):
        tables.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(codes.CosetLeaderTable, "__init__", spy_init)
    inner = bvector_pair(field, b1, b2)
    cp = concatenate(inner, outer, ext)
    ctxs = DecoderContext(cp, side=1), DecoderContext(cp, side=2)
    return inner, ctxs, calls, tables


@pytest.mark.parametrize("field, n", [(F2, 6), (F3, 6), (F4, 4)])
def test_equal_checks_set_up_two_eliminations_and_one_leader_table(monkeypatch, field, n):
    """bvector_pair(F, b, b) has one inner code for both sides, so its whole
    set-up, the pair, concatenate and both decoder contexts, runs 2
    eliminations (the rank of the check and the row profile) and builds one
    CosetLeaderTable, which both contexts hold."""
    inner, ctxs, calls, tables = _count_setup(monkeypatch, field, [1] * n, [1] * n)
    assert inner.C1 is inner.C2
    assert calls == [(1, n), (n, 2 * n)]  # [C2.H^T | C1.G^T | I_n]
    assert len(tables) == 1 and ctxs[0].table is ctxs[1].table is tables[0]
    assert inner.C1.leader_table() is tables[0]


def test_different_checks_set_up_two_codes_and_two_leader_tables(monkeypatch):
    """Different checks keep two codes: the rank of each check, the row
    profile, and a leader table per side, each from its own check."""
    inner, ctxs, calls, tables = _count_setup(monkeypatch, F3, [1] * 6, [1, 2] * 3)
    assert inner.C1 is not inner.C2 and len(calls) == 3
    assert len(tables) == 2 and ctxs[0].table is not ctxs[1].table
    assert ctxs[0].table is inner.C1.leader_table() and ctxs[1].table is inner.C2.leader_table()
    for ctx, code in zip(ctxs, (inner.C1, inner.C2)):
        fresh = codes.CosetLeaderTable(code)
        assert np.array_equal(ctx.table.leaders, fresh.leaders)


def test_context_cap_is_checked_against_the_shared_table():
    """A context whose cap is below the q^m table entries raises TooLarge,
    also after a default-cap context of either side built the table."""
    cp = _cp_96_32_gf3()  # one check row over GF(3): 3 entries
    with pytest.raises(TooLarge):
        DecoderContext(cp, side=1, cap=2)
    table = DecoderContext(cp, side=1).table
    for side in (1, 2):
        with pytest.raises(TooLarge):
            DecoderContext(cp, side=side, cap=2)
        assert DecoderContext(cp, side=side, cap=3).table is table


def _cp_504_186():
    """Inner [[8,6]] over GF(2), outer RS[63,47] over GF(64)."""
    ext = Extension(F2, 6)
    return concatenate(bvector_pair(F2, [1] * 8, [1] * 8), nested_grs_pair(ext, 63, 47, 47), ext)


def test_outer_products_read_the_codes_transposes(monkeypatch):
    """After mc_error_rate on both sides of [[504,186]], every GF(Q) product
    by an array with an axis N long read one of the codes' kept tables: the
    outer syndromes and the decoder's re-encode check the same H^T of the
    side's code, test (ii) the G^T of the opposite code, the Chien search
    its power table.  No context keeps an array with an axis N long."""
    cp = _cp_504_186()
    fQ = cp.ext.as_field()
    seen = []
    matmul = fQ._matmul  # the product under Field.matmul and the GRS codes' products

    def spy(A, B):
        seen.append(np.asarray(B))
        return matmul(A, B)

    monkeypatch.setattr(fQ, "_matmul", spy)
    ch = AdditiveChannel.symmetric(F2, 0.015)
    for side in (1, 2):
        ctx = DecoderContext(cp, side=side)
        D, D_o = (cp.D1, cp.D2) if side == 1 else (cp.D2, cp.D1)
        seen.clear()
        r = mc_error_rate(ctx, ch, 300, 11)
        assert r.failures > 0
        wide = [B for B in seen if cp.N in B.shape]
        Ht = [B for B in wide if np.shares_memory(B, D._Ht)]
        assert len(Ht) >= 2 and all(B.shape == (cp.N, cp.N - D.K) for B in Ht)
        assert all(np.shares_memory(B, D._Ht) or np.shares_memory(B, D_o._Gt)
                   or np.shares_memory(B, D._chien[0]) for B in wide)
        assert not [key for key, value in vars(ctx).items()
                    if isinstance(value, np.ndarray) and cp.N in value.shape]


def test_decode_builds_no_success_test_table():
    """decode_batch and full_syndrome build the side's H^T and decoder
    tables and no G^T of either code, nor does outside_dual on zero rows;
    the success oracle then builds the opposite code's G^T."""
    cp = _cp_90_28()
    rng = np.random.default_rng(5)
    E = (rng.random((20, cp.block_length)) < 0.02).astype(F2.dtype)
    ctxs = [DecoderContext(cp, side=side) for side in (1, 2)]
    for ctx in ctxs:
        Ehat, ok = decode_batch(ctx, ctx.full_syndrome(E))
        assert not ctx.outside_dual(np.zeros((3, cp.N), dtype=np.int8)).any()
        assert "_Ht" in vars(ctx.grs) and "_chien" in vars(ctx.grs)
        assert "_Gt" not in vars(cp.D1) and "_Gt" not in vars(cp.D2)
    for ctx in ctxs:
        Ehat, ok = decode_batch(ctx, ctx.full_syndrome(E))
        success_oracle_rows(ctx, E, Ehat)
        assert "_Gt" in vars(cp.D2 if ctx.side == 1 else cp.D1)
