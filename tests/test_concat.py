"""Concatenation: golden parity-check block, duality, syndrome identity,
and the quotient-distance product law."""

import copy
import dataclasses

import numpy as np
import pytest

from cssconcat import concat, matrix
from cssconcat.codes import (
    CssPair,
    LinearCode,
    bvector_pair,
    min_weight_excluding,
    random_css_pair,
    validate_css,
)
from hypothesis import given, settings, strategies as st

from cssconcat.channel_sim import AdditiveChannel, mc_error_rate
from cssconcat.concat import (
    _subfield_rows,
    build_parity_check,
    concatenate,
    pi_map,
    pi_rows,
    verify_duality,
)
from cssconcat.decode import DecoderContext
from cssconcat.errors import FieldMismatch, NotOrthogonal, RankDeficient
from cssconcat.galois import Extension, Field
from cssconcat.matrix import MatGF
from cssconcat.outer_grs import GrsCode, nested_grs_pair

F2 = Field(2)


def trivial_pair(n):
    full = LinearCode.full_space(F2, n)
    return CssPair.build(full, full)


def test_golden_expanded_parity_block():
    """Trivial inner length 3, GF(8) outer check [1, alpha]: block = [I | T]."""
    inner = trivial_pair(3)
    e8 = Extension(F2, 3)
    Hout = np.array([[1, 2]])
    _, lower = build_parity_check(inner, e8, Hout, side=1)
    assert lower.tolist() == [[1, 0, 0, 0, 0, 1],
                             [0, 1, 0, 1, 0, 1],
                             [0, 0, 1, 0, 1, 0]]


def _nested_on_points(ext, N, K1, K2):
    """Nested outer pair on the first N element codes (0 allowed as a point)."""
    pts = list(range(N))
    ones = [1] * N
    D1 = GrsCode(ext, pts, ones, K1)
    if K2 == N:
        D2 = GrsCode(ext, pts, ones, N)
    else:
        D2 = GrsCode(ext, pts, ones, N - K2).dual()
    return D1, D2


def _instance_12_2(K1=1, K2=3):
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    D1, D2 = nested_grs_pair(e4, 3, K1, K2)
    return concatenate(inner, (D1, D2), e4)


def test_dimensions_12_2():
    cp = _instance_12_2(2, 2)
    assert (cp.block_length, cp.logical_dims) == (12, 2)
    assert cp.L1.dim == cp.k * cp.D1.dim + (cp.n - cp.inner.k2) * cp.N


def test_dimensions_90_28():
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    cp = concatenate(inner, nested_grs_pair(e16, 15, 11, 11), e16)
    assert (cp.block_length, cp.logical_dims) == (90, 28)


def test_field_mismatch():
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e8 = Extension(F2, 3)  # degree 3 != inner k 2
    with pytest.raises(FieldMismatch):
        concatenate(inner, nested_grs_pair(e8, 5, 3, 3), e8)


def test_duality_small_instances():
    cp = _instance_12_2(2, 2)
    assert verify_duality(cp)
    cp2 = _instance_12_2(1, 3)
    assert verify_duality(cp2)


def test_duality_randomized():
    """Randomized concatenations, duals checked by null-space computation."""
    rng = np.random.default_rng(21)
    checked = 0
    attempts = 0
    while checked < 25 and attempts < 400:
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
        assert verify_duality(cp)
        checked += 1
    assert checked == 25


def test_pairing_preserved_by_expansion():
    """Tr(x*y) = <pi_1(x), pi_2(y)> for random symbols."""
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.integers(0, 4, size=3)
        y = rng.integers(0, 4, size=3)
        lhs = F2.dot(pi_map(1, inner, e4, x), pi_map(2, inner, e4, y))
        rhs = 0
        for xi, yi in zip(x, y):
            rhs = F2.add(rhs, e4.trace(e4.mul(int(xi), int(yi))))
        assert lhs == rhs


def _syndrome_identity_holds(cp, rng, trials):
    f = cp.inner.field
    ext = cp.ext
    for _ in range(trials):
        x = rng.integers(0, ext.Q, size=cp.N)
        lhs = f.matmul(pi_map(1, cp.inner, ext, x), cp.Gp1.T)
        symbols = ext.as_field().matmul(x, cp.Hout1.T)
        rhs = ext.coords(symbols).reshape(-1)
        if not np.array_equal(lhs, rhs):
            return False
        lhs2 = f.matmul(pi_map(2, cp.inner, ext, x), cp.Gp2.T)
        symbols2 = ext.as_field().matmul(x, cp.Hout2.T)
        rhs2 = (np.concatenate([ext.phi_dual(int(s)) for s in symbols2])
                if len(symbols2) else np.zeros(0, dtype=np.int64))
        if not np.array_equal(lhs2, rhs2):
            return False
    return True


def test_syndrome_identity_three_concatenations():
    rng = np.random.default_rng(17)
    cps = [
        _instance_12_2(1, 3),
        _instance_12_2(2, 2),
        concatenate(bvector_pair(F2, [1] * 6, [1] * 6),
                    nested_grs_pair(Extension(F2, 4), 15, 11, 11),
                    Extension(F2, 4)),
    ]
    for cp in cps:
        assert _syndrome_identity_holds(cp, rng, 200)


def product_law_value(cp, cap=1 << 24):
    d1 = min_weight_excluding(cp.inner.C1, cp.inner.C2.dual(), cap)
    Dq = min_weight_excluding(cp.D1, cp.D2.dual(), cap)
    lhs = min_weight_excluding(cp.L1, cp.L2.dual(), cap)
    return lhs, d1 * Dq


def test_product_law_12_2():
    lhs, rhs = product_law_value(_instance_12_2(2, 2))
    assert lhs == rhs == 4  # inner 2 x outer 2


def test_product_law_more_instances():
    e4 = Extension(F2, 2)
    instances = []
    inner42 = bvector_pair(F2, [1] * 4, [1] * 4)
    # combos chosen so both quotients C1\dual(C2) and D1\dual(D2) are proper
    for K1, K2 in ((1, 3), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)):
        instances.append(concatenate(inner42, nested_grs_pair(e4, 3, K1, K2), e4))
    triv2 = CssPair.build(LinearCode.full_space(F2, 2), LinearCode.full_space(F2, 2))
    for K1, K2 in ((1, 3), (2, 2), (2, 3)):
        instances.append(concatenate(triv2, nested_grs_pair(e4, 3, K1, K2), e4))
    assert len(instances) >= 9  # 10 total with the [[12,2]] instance above
    for cp in instances:
        lhs, rhs = product_law_value(cp)
        assert lhs == rhs, cp


def test_outer_containment_violation():
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e4 = Extension(F2, 2)
    D = GrsCode(e4, [1, 2, 3], [1, 1, 1], 1)  # dual(D) has dimension 2 > dim D
    with pytest.raises(NotOrthogonal):
        concatenate(inner, (D, D), e4)


# -- whole-matrix expansions against per-row and per-block loops ---------------

F3 = Field(3)
F4 = Field(2, 2)
# (inner pair, extension) with inner k equal to the extension degree
EXPANSIONS = [(bvector_pair(F2, [1] * 4, [1] * 4), Extension(F2, 2)),
              (bvector_pair(F2, [1] * 6, [1] * 6), Extension(F2, 4)),
              (bvector_pair(F3, [1] * 6, [1] * 6), Extension(F3, 4)),
              (bvector_pair(F4, [1] * 4, [1] * 4), Extension(F4, 2))]  # GF(16)/GF(4)


def _pi_row_loop(m, pair, ext, M):
    """pi_map one row at a time, with trace-dual coordinates from the trace."""
    out = []
    for row in M:
        if m == 1:
            coords = ext.coords(row)
        else:
            coords = np.array([[ext.trace(ext.mul(int(x), ext.alpha_pow(j)))
                                for j in range(ext.k)] for x in row], dtype=np.int64)
            assert np.array_equal(pi_map(2, pair, ext, row),
                                  pair.field.matmul(coords, pair.g2).reshape(-1))
        out.append(pi_map(m, pair, ext, row))
    return np.array(out, dtype=np.int64).reshape(len(M), pair.n * M.shape[1])


@st.composite
def ext_matrices(draw):
    pair, ext = draw(st.sampled_from(EXPANSIONS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, ext.Q - 1), min_size=rows * cols,
                         max_size=rows * cols))
    return pair, ext, np.array(flat, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=80, deadline=None)
@given(ext_matrices())
def test_pi_rows_matches_row_loop(case):
    pair, ext, M = case
    for m in (1, 2):
        assert np.array_equal(pi_rows(m, pair, ext, M), _pi_row_loop(m, pair, ext, M))


@settings(max_examples=80, deadline=None)
@given(ext_matrices())
def test_subfield_rows_matches_row_loop(case):
    _, ext, M = case
    want = [[ext.mul(ext.alpha_pow(l), int(x)) for x in row]
            for row in M for l in range(ext.k)]
    got = _subfield_rows(ext, M)
    assert got.shape == (M.shape[0] * ext.k, M.shape[1])
    assert got.tolist() == want


def _parity_block_loop(inner, ext, Hout, side):
    """The expanded outer check built one k x n block at a time from phi(h)."""
    f, n, k = inner.field, inner.n, inner.k
    g_other = inner.g2 if side == 1 else inner.g1
    M, N = Hout.shape
    lower = np.zeros((k * M, n * N), dtype=np.int64)
    for j in range(M):
        for i in range(N):
            P = ext.phi(int(Hout[j, i]))
            if side == 2:
                P = P.T
            lower[j * k:(j + 1) * k, i * n:(i + 1) * n] = f.matmul(P, g_other)
    return lower


@pytest.mark.parametrize("inner, ext, N, K", [
    (bvector_pair(F2, [1] * 6, [1] * 6), Extension(F2, 4), 15, 11),  # [[90,28]]
    (bvector_pair(F3, [1] * 6, [1] * 6), Extension(F3, 4), 12, 8),   # [[72,16]] over GF(3)
    (bvector_pair(F4, [1] * 4, [1] * 4), Extension(F4, 2), 15, 11),  # [[60,14]] over GF(4)
])
def test_build_parity_check_matches_block_loop(inner, ext, N, K):
    cp = concatenate(inner, nested_grs_pair(ext, N, K, K), ext)
    for side, Hout, Ho, Gp in ((1, cp.Hout1, cp.Ho1, cp.Gp1), (2, cp.Hout2, cp.Ho2, cp.Gp2)):
        want = _parity_block_loop(inner, ext, Hout, side)
        assert np.array_equal(Gp, want)
        assert np.array_equal(Ho[-want.shape[0]:], want)


def test_concatenate_retains_no_generator():
    """Set-up, decoding and MC never build L1/L2; Gp_i is a row view of Ho_i;
    the generators built on first access match the eager construction."""
    inner, ext = EXPANSIONS[1]
    cp = concatenate(inner, nested_grs_pair(ext, 15, 11, 11), ext)
    ctxs = (DecoderContext(cp, side=1), DecoderContext(cp, side=2))
    mc_error_rate(ctxs[0], AdditiveChannel.symmetric(F2, 0.05), 64, 3)
    assert "L1" not in vars(cp) and "L2" not in vars(cp)
    assert np.shares_memory(cp.Gp1, cp.Ho1) and np.shares_memory(cp.Gp2, cp.Ho2)
    eye = np.eye(cp.N, dtype=np.int64)
    for L, m, D, H_other in ((cp.L1, 1, cp.D1, inner.C2.H), (cp.L2, 2, cp.D2, inner.C1.H)):
        rows = [pi_map(m, inner, ext, ext.mul(ext.alpha_pow(l), D.G[r]))
                for r in range(D.dim) for l in range(ext.k)]
        want = np.concatenate([np.array(rows), np.kron(eye, H_other)])
        assert L.G.dtype == F2.dtype and np.array_equal(L.G, want)
    assert "L1" in vars(cp) and vars(cp)["L1"] is cp.L1


# -- the certified set-up against the generic, elimination-based path ----------

def _inputs(name):
    """(inner, outer pair, extension) of a named instance."""
    if name == "12_2":
        ext = Extension(F2, 2)
        return bvector_pair(F2, [1] * 4, [1] * 4), nested_grs_pair(ext, 3, 2, 2), ext
    if name == "90_28":
        ext = Extension(F2, 4)
        return bvector_pair(F2, [1] * 6, [1] * 6), nested_grs_pair(ext, 15, 11, 11), ext
    ext = Extension(F3, 4)
    inner = bvector_pair(F3, [1] * 6, [1] * 6)
    if name == "480_160_gf3":
        return inner, nested_grs_pair(ext, 80, 60, 60), ext
    assert name == "96_32_gf3_linear"
    outer = tuple(LinearCode(ext.as_field(), D.G) for D in nested_grs_pair(ext, 16, 12, 12))
    return inner, outer, ext


CERTIFIED = ["12_2", "90_28", "480_160_gf3", "96_32_gf3_linear"]


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_setup_matches_generic_path(name):
    cp = concatenate(*_inputs(name))
    f = cp.inner.field
    assert verify_duality(cp)
    assert validate_css(cp.D1, cp.D2) and validate_css(cp.L1, cp.L2)
    for L, Ho in ((cp.L1, cp.Ho1), (cp.L2, cp.Ho2)):
        assert LinearCode(f, L.G).dim == L.dim
        assert MatGF(f, Ho).rank == len(Ho) == cp.block_length - L.dim
        assert MatGF(f, Ho).same_row_space(L.Gmat.null_space())


@pytest.mark.parametrize("name", ["90_28", "96_32_gf3_linear"])
def test_outer_pair_without_containment_rejected(name):
    """dual(D2) = RS_4 is not inside D1 = RS_2: both paths reject it."""
    inner, (_, D2), ext = _inputs(name)
    N = D2.G.shape[1]
    D1 = GrsCode(ext, [ext.alpha_pow(j) for j in range(N)], [1] * N, 2)
    if isinstance(D2, LinearCode):
        D1 = LinearCode(ext.as_field(), D1.G)
        assert not validate_css(D1, D2)
    else:
        assert not validate_css(D1.as_linear_code(), D2.as_linear_code())
    with pytest.raises(NotOrthogonal):
        concatenate(inner, (D1, D2), ext)


@pytest.mark.parametrize("flip", [1, 2])
@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3_linear"])
def test_flipped_expanded_check_rejected(monkeypatch, name, flip):
    inner, outer, ext = _inputs(name)
    q = inner.field.q
    good = concatenate(inner, outer, ext)
    build = concat._expanded_check

    def flipped(inner, ext, Hout, side):
        Ho, lower = build(inner, ext, Hout, side)
        if side == flip:
            lower = lower.copy()
            lower[0, 0] = (lower[0, 0] + 1) % q
            Ho = np.concatenate([Ho[:len(Ho) - len(lower)], lower])
        return Ho, lower

    monkeypatch.setattr(concat, "_expanded_check", flipped)
    with pytest.raises((NotOrthogonal, RankDeficient)):
        concatenate(inner, outer, ext)
    Ho, lower = flipped(inner, ext, good.Hout1 if flip == 1 else good.Hout2, flip)
    fields = {"Ho1": Ho, "Gp1": lower} if flip == 1 else {"Ho2": Ho, "Gp2": lower}
    assert not verify_duality(dataclasses.replace(good, **fields))


@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3_linear"])
def test_dependent_inner_generator_rejected(name):
    """A CssPair whose second g1 row lies in the first plus dual(C2), built
    without its own validation."""
    inner, outer, ext = _inputs(name)
    f = inner.field
    bad = copy.copy(inner)
    bad.g1 = inner.g1.copy()
    bad.g1[1] = f.add(inner.g1[0], inner.C2.H[0])
    with pytest.raises(RankDeficient):
        concatenate(bad, outer, ext)


def test_outer_code_with_redundant_parity_check_rejected():
    """A LinearCode outer code whose H repeats a row: its G and H do not have
    N rows together, so the expanded check would not have full rank."""
    inner, (D1, D2), ext = _inputs("96_32_gf3_linear")
    H = np.concatenate([D2.H, D2.H[:1]])
    redundant = LinearCode.from_parity_check(ext.as_field(), H)
    with pytest.raises(RankDeficient):
        concatenate(inner, (D1, redundant), ext)


@pytest.mark.parametrize("name", ["90_28", "480_160_gf3"])
def test_setup_eliminates_no_nN_column_matrix(monkeypatch, name):
    """concatenate and both decoder contexts eliminate only small matrices,
    and never a GF(Q) matrix of a GRS outer code."""
    inner, outer, ext = _inputs(name)
    calls = []
    for kind, kernel in list(matrix._RREF.items()):
        def spy(f, a, kind=kind, kernel=kernel):
            calls.append((kind, a.shape[1]))
            return kernel(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    cp = concatenate(inner, outer, ext)
    DecoderContext(cp, side=1)
    DecoderContext(cp, side=2)
    assert calls
    assert all(cols < cp.block_length for _, cols in calls)
    assert all(kind != "tables" for kind, _ in calls)
