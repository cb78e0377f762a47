"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE n: PASS|FAIL`` line (bypassing capture) and
asserts the underlying property.  The checks cover golden matrix values,
exhaustive algebraic identities, randomized structural invariants, decoder
guarantees, Monte-Carlo consistency with the analytic union bound, exponent
calculators, exact bound specializations, and the enlargement floor.
"""

import itertools
import math
import time

import numpy as np
import pytest

from cssconcat.bounds import (
    BoundCurve,
    bound_clx,
    bound_general,
    bound_main,
    emit_csv,
)
from cssconcat.channel_sim import (
    AdditiveChannel,
    capacity,
    mc_error_rate,
    random_coding_exponent,
    union_bound_pe,
)
from cssconcat.codes import (
    CssPair,
    LinearCode,
    bvector_pair,
    min_weight_excluding,
)
from cssconcat.concat import concatenate
from cssconcat.decode import (
    DecoderContext,
    decode_batch,
    success_oracle,
    success_oracle_rows,
    two_stage_decode,
)
from cssconcat.enlarge import (
    _verify_fixed_point_free,
    enlargement_distance_floor,
    distance2_inner_generator,
    fixed_point_free_matrix,
    steane_enlarge,
    symplectic_min_distance,
)
from cssconcat.galois import Extension, Field
from cssconcat.outer_grs import GrsCode, nested_grs_pair
from references import checked_verify_duality, random_css_pair, simplex_grid_exponent

F2 = Field(2)
F4 = Field(2, 2)


def _report(capsys, num, fn):
    ok = False
    try:
        fn()
        ok = True
    finally:
        with capsys.disabled():
            print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}")
    assert ok


# -- 1: golden multiplication matrices ---------------------------------------

def test_acceptance_01_golden_matrices(capsys):
    def check():
        start = time.monotonic()
        ext = Extension(F2, 3, (1, 1, 0, 1))  # x^3 + x + 1
        T = ext.companion_matrix()
        assert T.tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
        Hprime = np.hstack([ext.phi(1), ext.phi(2)])
        assert Hprime.tolist() == [[1, 0, 0, 0, 0, 1],
                                   [0, 1, 0, 1, 0, 1],
                                   [0, 0, 1, 0, 1, 0]]
        assert time.monotonic() - start < 1.0
    _report(capsys, 1, check)


# -- 2: multiplication-matrix identities -------------------------------------

def _phi_violations(ext, pairs):
    f = ext.base
    bad = 0
    for x, y in pairs:
        x, y = int(x), int(y)
        xy = ext.as_field().mul(x, y)
        lhs = f.matmul(ext.phi(x), ext.coords(y)[:, None]).reshape(-1)
        if not np.array_equal(lhs, ext.coords(xy)):
            bad += 1
        lhs2 = f.matmul(ext.phi_dual(x), ext.phi(y))
        if not np.array_equal(lhs2, ext.phi_dual(xy)):
            bad += 1
        if not np.array_equal(ext.phi(xy), f.matmul(ext.phi(x), ext.phi(y))):
            bad += 1
        if not np.array_equal(ext.phi(ext.as_field().add(x, y)),
                              f.add(ext.phi(x), ext.phi(y))):
            bad += 1
    return bad


def test_acceptance_02_phi_identities(capsys):
    def check():
        e8 = Extension(F2, 3)
        assert _phi_violations(e8, itertools.product(range(8), range(8))) == 0
        e16 = Extension(F4, 2)
        assert _phi_violations(e16, itertools.product(range(16), range(16))) == 0
        e256 = Extension(F2, 8)
        rng = np.random.default_rng(2)
        assert _phi_violations(e256, rng.integers(0, 256, size=(10 ** 4, 2))) == 0
    _report(capsys, 2, check)


# -- 3: coset-generator postconditions ---------------------------------------

def _pair_postconditions_ok(pair):
    from cssconcat.matrix import MatGF
    f = pair.field
    if not np.array_equal(f.matmul(pair.g1, pair.g2.T),
                          np.eye(pair.k, dtype=np.int64)):
        return False
    m1 = MatGF(f, np.concatenate([pair.C2.H, pair.g1], axis=0))
    if not m1.same_row_space(pair.C1.Gmat):
        return False
    m2 = MatGF(f, np.concatenate([pair.C1.H, pair.g2], axis=0))
    if not m2.same_row_space(pair.C2.Gmat):
        return False
    return not f.matmul(pair.g2, pair.C2.H.T).any()


def test_acceptance_03_pair_postconditions(capsys):
    def check():
        rng = np.random.default_rng(3)
        fields = [Field(2), Field(3), Field(2, 2)]
        violations = 0
        for i in range(100):
            f = fields[i % 3]
            n = int(rng.integers(3, 11))
            k = int(rng.integers(1, min(n, 4) + 1))
            pair = random_css_pair(rng, f, n, k)
            if not _pair_postconditions_ok(pair):
                violations += 1
        assert violations == 0
    _report(capsys, 3, check)


# -- 4: concatenation duality ------------------------------------------------

def _nested_on_points(ext, N, K1, K2):
    pts = list(range(N))
    ones = [1] * N
    D1 = GrsCode(ext, pts, ones, K1)
    D2 = GrsCode(ext, pts, ones, N) if K2 == N else \
        GrsCode(ext, pts, ones, N - K2).dual()
    return D1, D2


def test_acceptance_04_duality_randomized(capsys):
    def check():
        start = time.monotonic()
        rng = np.random.default_rng(4)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 2000:
            attempts += 1
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 8))
            ext = Extension(F2, k)
            N = int(rng.integers(2, min(8, ext.Q + 1)))
            K1 = int(rng.integers(1, N + 1))
            K2 = int(rng.integers(max(1, N - K1), N + 1))
            try:
                inner = random_css_pair(rng, F2, n, k)
                cp = concatenate(inner, _nested_on_points(ext, N, K1, K2), ext)
            except Exception:
                continue
            assert checked_verify_duality(cp)
            checked += 1
        assert checked == 100
        assert time.monotonic() - start < 30.0
    _report(capsys, 4, check)


# -- 5: quotient-distance product law ----------------------------------------

def _product_law_holds(cp, cap=1 << 24):
    d1 = min_weight_excluding(cp.inner.C1, cp.inner.C2.dual(), cap)
    Dq = min_weight_excluding(cp.D1.as_linear_code(), cp.D2.as_linear_code().dual(), cap)
    lhs = min_weight_excluding(cp.L1, cp.L2.dual(), cap)
    return lhs, d1 * Dq


def test_acceptance_05_product_law(capsys):
    def check():
        e4 = Extension(F2, 2)
        inner42 = bvector_pair(F2, [1] * 4, [1] * 4)
        instances = []
        for K1, K2 in ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
            instances.append(
                concatenate(inner42, nested_grs_pair(e4, 3, K1, K2), e4))
        triv2 = CssPair.build(LinearCode.full_space(F2, 2),
                              LinearCode.full_space(F2, 2))
        for K1, K2 in ((1, 3), (2, 2), (2, 3), (3, 3)):
            instances.append(
                concatenate(triv2, nested_grs_pair(e4, 3, K1, K2), e4))
        assert len(instances) >= 10
        for cp in instances:
            lhs, rhs = _product_law_holds(cp)
            assert lhs == rhs
        # the [[12,2]] instance has product exactly 2 * 2 = 4
        cp = concatenate(inner42, nested_grs_pair(e4, 3, 2, 2), e4)
        lhs, rhs = _product_law_holds(cp)
        assert lhs == rhs == 4
    _report(capsys, 5, check)


# -- 6: decoder guarantee ----------------------------------------------------

def _cp_90_28():
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    return concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)


def _batch_success(ctx, E):
    """Two-stage decode + oracle over rows of E."""
    Ehat, _ = decode_batch(ctx, ctx.full_syndrome(E))
    return success_oracle_rows(ctx, E, Ehat)


def test_acceptance_06_decoder_guarantee(capsys):
    def check():
        start = time.monotonic()
        # exhaustive: [[12,2]]-family instance with outer radius 1
        inner = bvector_pair(F2, [1] * 4, [1] * 4)
        e4 = Extension(F2, 2)
        cp = concatenate(inner, nested_grs_pair(e4, 3, 1, 3), e4)
        ctx = DecoderContext(cp, side=1)
        for block in range(3):
            for pattern in itertools.product(range(2), repeat=4):
                e = np.zeros(12, dtype=np.int64)
                e[block * 4:(block + 1) * 4] = pattern
                est, ok = two_stage_decode(ctx, ctx.full_syndrome(e))
                assert ok and success_oracle(ctx, e, est)
        # statistical: 1e5 random errors in the guaranteed region of [[90,28]]
        big = DecoderContext(_cp_90_28(), side=1)
        rng = np.random.default_rng(6)
        total = 10 ** 5
        chunk = 4000
        for off in range(0, total, chunk):
            cnt = min(chunk, total - off)
            E = np.zeros((cnt, 90), dtype=np.int64)
            for i in range(cnt):
                blocks = rng.choice(15, size=2, replace=False)
                for b in blocks:
                    E[i, b * 6:(b + 1) * 6] = rng.integers(0, 2, size=6)
            ok = _batch_success(big, E)
            assert ok.all()
        assert time.monotonic() - start < 300.0
    _report(capsys, 6, check)


# -- 7: syndrome identity ----------------------------------------------------

def test_acceptance_07_syndrome_identity(capsys):
    def check():
        from cssconcat.concat import pi_map
        rng = np.random.default_rng(7)
        e4 = Extension(F2, 2)
        inner42 = bvector_pair(F2, [1] * 4, [1] * 4)
        cps = [
            concatenate(inner42, nested_grs_pair(e4, 3, 1, 3), e4),
            concatenate(inner42, nested_grs_pair(e4, 3, 2, 2), e4),
            _cp_90_28(),
        ]
        per_cp = (10 ** 4) // len(cps) + 1
        for cp in cps:
            f = cp.inner.field
            ext = cp.ext
            X = rng.integers(0, ext.Q, size=(per_cp, cp.N))
            Gp1 = cp.parity_check(1)[cp.N * len(cp.inner.C1.H):]
            for x in X:
                lhs = f.matmul(pi_map(1, cp.inner, ext, x), Gp1.T)
                symbols = ext.as_field().matmul(x, cp.Hout1.T)
                rhs = ext.coords(symbols).reshape(-1)
                assert np.array_equal(lhs, rhs)
    _report(capsys, 7, check)


# -- 8: Monte-Carlo vs union bound -------------------------------------------

def test_acceptance_08_mc_vs_union_bound(capsys):
    def check():
        start = time.monotonic()
        ctx = DecoderContext(_cp_90_28(), side=1)
        trials = 10 ** 5
        for j, p in enumerate((0.001, 0.005, 0.01)):
            ch = AdditiveChannel.symmetric(F2, p)
            res = mc_error_rate(ctx, ch, trials, seed=800 + j)
            ub = union_bound_pe(res.inner_block_rate, 15, 11)
            sigma = math.sqrt(max(res.estimate, 1.0 / trials)
                              * (1 - res.estimate) / trials)
            sigma += math.sqrt(max(ub, 1.0 / trials) * (1 - min(ub, 1.0)) / trials)
            assert res.estimate <= ub + 3 * sigma, (p, res.estimate, ub)
        assert time.monotonic() - start < 600.0
    _report(capsys, 8, check)


# -- 9: exponent calculator --------------------------------------------------

def test_acceptance_09_exponent(capsys):
    def check():
        channels = [
            AdditiveChannel(F2, [1.0, 0.0]),
            AdditiveChannel(F2, [0.95, 0.05]),
            AdditiveChannel(F2, [0.8, 0.2]),
            AdditiveChannel(Field(3), [0.9, 0.06, 0.04]),
            AdditiveChannel(F4, [0.85, 0.05, 0.05, 0.05]),
        ]
        for W in channels:
            c = capacity(W)
            for r in np.linspace(0.0, 1.0, 50):
                E = random_coding_exponent(W, float(r))
                if r >= c + 1e-6:
                    assert E <= 1e-6
                elif r <= c - 1e-6:
                    assert E > 0.0
        for W in channels[:4]:
            for r in (0.0, 0.1, 0.3, 0.5):
                a = random_coding_exponent(W, r)
                b = simplex_grid_exponent(W, r, 1e-3)
                assert abs(a - b) < 1e-3
    _report(capsys, 9, check)


# -- 10: bound reproduction and curve ordering -------------------------------

def test_acceptance_10_bounds(capsys):
    def check(tmpdir=None):
        from fractions import Fraction
        rates = [Fraction(i, 99) for i in range(100)]
        for t, q in ((1, 4), (2, 2), (3, 2), (2, 3)):
            for R in rates:
                assert bound_main(t, q, R) == bound_general(
                    2 * t + 2, 2 * t, 2, 2, q, R)
                assert bound_clx(t, q, R) == bound_general(
                    2 * t + 1, 2 * t, 1, 2, q, R)
        # improved envelope dominates the earlier one; strict at rate 0
        Rgrid = [Fraction(i, 100) for i in range(16)]
        env_c = [max(bound_main(t, 2, R) for t in range(2, 12)) for R in Rgrid]
        env_b = [max(bound_clx(t, 2, R) for t in range(1, 12)) for R in Rgrid]
        deltas = set()
        for c, b in zip(env_c, env_b):
            assert c >= b
            deltas.add(float(c))
        assert all(0.0 <= d <= 0.15 for d in deltas if d >= 0)
        assert env_c[0] == Fraction(5, 56) > env_b[0] == Fraction(10, 147)
        # CSV round trip preserves the pointwise ordering c >= b
        import tempfile
        import os
        curves = [BoundCurve("b", [float(R) for R in Rgrid], env_b),
                  BoundCurve("c", [float(R) for R in Rgrid], env_c)]
        fd, path = tempfile.mkstemp(suffix=".csv")
        os.close(fd)
        try:
            emit_csv(curves, path)
            with open(path) as fh:
                lines = fh.read().splitlines()
            assert lines[0] == "x,b,c"
            for ln in lines[1:]:
                _, b, c = (float(v) for v in ln.split(","))
                assert c >= b
        finally:
            os.unlink(path)
    _report(capsys, 10, check)


# -- 11: enlargement floor ---------------------------------------------------

def test_acceptance_11_enlargement_floor(capsys):
    def check():
        HAMMING_H = np.array([[1, 0, 1, 0, 1, 0, 1],
                              [0, 1, 1, 0, 0, 1, 1],
                              [0, 0, 0, 1, 1, 1, 1]])
        He = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                       [0, 0, 0, 0, 1, 1, 1, 1],
                       [0, 0, 1, 1, 0, 0, 1, 1],
                       [0, 1, 0, 1, 0, 1, 0, 1]])
        instances = [
            (LinearCode.from_parity_check(F2, HAMMING_H),
             LinearCode.from_parity_check(F2, HAMMING_H[:1])),
            (LinearCode.from_parity_check(F2, He),
             LinearCode.from_parity_check(F2, He[:1])),
            (LinearCode(F2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]])),
             LinearCode.full_space(F2, 4)),
            (LinearCode(F4, np.array([[1, 0, 1, 0], [0, 1, 0, 1]])),
             LinearCode.full_space(F4, 4)),
            (LinearCode(F4, np.array([[1, 1, 0, 0, 0, 0],
                                      [0, 0, 1, 1, 0, 0],
                                      [0, 0, 0, 0, 1, 1]])),
             LinearCode.full_space(F4, 6)),
        ]
        cap = 1 << 22
        for C, Cp in instances:
            assert C.n <= 12
            enl = steane_enlarge(C, Cp)
            d = min_weight_excluding(C, Cp.dual(), cap)
            dp = min_weight_excluding(Cp, Cp.dual(), cap)
            floor = enlargement_distance_floor(d, dp, C.field.q)
            assert symplectic_min_distance(C.field, enl.G, cap=cap) >= floor
        # fixed-point-freeness verified exhaustively
        for f, m in ((F2, 2), (F2, 4), (F4, 2), (F4, 3), (Field(3), 3)):
            M = fixed_point_free_matrix(f, m)
            assert _verify_fixed_point_free(f, M)
    _report(capsys, 11, check)


# -- 12: distance-2 inner generator family -----------------------------------

def test_acceptance_12_distance2_family(capsys):
    def check():
        G3, _, _ = distance2_inner_generator(F4, 3)
        assert G3.a.tolist() == [[2, 3, 1], [3, 2, 0]]
        G4, _, _ = distance2_inner_generator(F4, 4)
        assert G4.a.tolist() == [[2, 3, 2, 3], [3, 2, 0, 0], [1, 2, 2, 0]]
        for f in (F4, Field(2, 4)):
            for n in range(3, 11):
                G, b, gs = distance2_inner_generator(f, n)
                # (A'): the span is an [n, n-1] code containing its dual span(b)
                C = LinearCode(f, G.a)
                assert C.dim == n - 1
                assert (b != 0).all() and f.dot(b, b) == 0
                from cssconcat.matrix import MatGF
                assert C.Hmat.same_row_space(MatGF(f, b[None, :]))
                # (B'): orthonormal coset generators orthogonal to b
                gsm = np.array(gs)
                assert np.array_equal(f.matmul(gsm, gsm.T),
                                      np.eye(n - 2, dtype=np.int64))
                assert not f.matmul(gsm, b[:, None]).any()
    _report(capsys, 12, check)
