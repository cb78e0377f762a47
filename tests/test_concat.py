"""Concatenation: golden parity-check block, duality, syndrome identity,
and the quotient-distance product law."""

import copy
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from cssconcat import concat, matrix, outer_grs
from cssconcat.codes import (
    CssPair,
    LinearCode,
    bvector_pair,
    min_weight_excluding,
    validate_css,
)
from hypothesis import given, settings, strategies as st

from cssconcat.channel_sim import AdditiveChannel, mc_error_rate
from cssconcat.concat import (
    _scaled,
    build_parity_check,
    concatenate,
    pi_map,
    verify_duality,
)
from cssconcat.decode import DecoderContext
from cssconcat.errors import (
    BadComplement,
    DomainError,
    FieldMismatch,
    NotOrthogonal,
    RankDeficient,
    TooLarge,
)
from cssconcat.galois import Extension, Field
from cssconcat.matrix import MatGF, chunk_rows
from cssconcat.outer_grs import GrsCode, nested_grs_pair
from references import checked_verify_duality, pi_rows, random_css_pair, wide_arrays

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


def test_side_outside_one_and_two_is_a_domain_error():
    """pi_map, build_parity_check and ConcatPair.parity_check reject a side
    other than 1 or 2 as DecoderContext does, with DomainError (a
    ValueError)."""
    inner = trivial_pair(3)
    e8 = Extension(F2, 3)
    cp = _instance_12_2(2, 2)
    for side in (0, 3, -1):
        with pytest.raises(DomainError, match="side must be 1 or 2"):
            pi_map(side, inner, e8, [1, 2])
        with pytest.raises(DomainError, match="side must be 1 or 2"):
            build_parity_check(inner, e8, np.array([[1, 2]]), side=side)
        with pytest.raises(DomainError, match="side must be 1 or 2"):
            cp.parity_check(side)


@pytest.mark.parametrize("side", [1, 2])
def test_pi_map_rejects_codes_outside_the_extension(side):
    """pi_map checks its codes on both sides: -1 and Q raise DomainError on
    [[6,4]] with GF(16), where side 2 once read -1 as the code 15 and raised
    IndexError for Q."""
    inner = bvector_pair(F2, [1] * 6, [1] * 6)
    e16 = Extension(F2, 4)
    for x in ([-1], [e16.Q], [3, -1], [[0], [e16.Q]]):
        with pytest.raises(DomainError, match="element codes"):
            pi_map(side, inner, e16, x)
    assert pi_map(side, inner, e16, [e16.Q - 1]).shape == (6,)


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
    assert cp.L1.dim == cp.k * cp.D1.K + (cp.n - cp.inner.k2) * cp.N


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


def test_inner_k_mismatch_is_one_field_mismatch():
    """An inner k other than the extension degree is rejected by the one
    convention check, with one class and message on every entry point:
    pi_map and build_parity_check once raised LengthMismatch where
    concatenate raised FieldMismatch."""
    inner = bvector_pair(F2, [1] * 4, [1] * 4)
    e8 = Extension(F2, 3)
    why = "inner k=2 does not match extension degree 3"
    for call in (lambda: concatenate(inner, nested_grs_pair(e8, 5, 3, 3), e8),
                 lambda: pi_map(1, inner, e8, [1]),
                 lambda: pi_map(2, inner, e8, [1]),
                 lambda: build_parity_check(inner, e8, np.array([[1, 2]]))):
        with pytest.raises(FieldMismatch, match=why):
            call()


def test_duality_small_instances():
    cp = _instance_12_2(2, 2)
    assert checked_verify_duality(cp)
    cp2 = _instance_12_2(1, 3)
    assert checked_verify_duality(cp2)


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
        assert checked_verify_duality(cp)
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
            rhs = F2.add(rhs, e4.trace(e4.as_field().mul(int(xi), int(yi))))
        assert lhs == rhs


def _gp(cp, side):
    """The expanded outer rows Gp_side of a freshly built check Ho_side."""
    return cp.parity_check(side)[cp.N * len((cp.inner.C1 if side == 1 else cp.inner.C2).H):]


def _syndrome_identity_holds(cp, rng, trials):
    f = cp.inner.field
    ext = cp.ext
    Gp1, Gp2 = _gp(cp, 1), _gp(cp, 2)
    for _ in range(trials):
        x = rng.integers(0, ext.Q, size=cp.N)
        lhs = f.matmul(pi_map(1, cp.inner, ext, x), Gp1.T)
        symbols = ext.as_field().matmul(x, cp.Hout1.T)
        rhs = ext.coords(symbols).reshape(-1)
        if not np.array_equal(lhs, rhs):
            return False
        lhs2 = f.matmul(pi_map(2, cp.inner, ext, x), Gp2.T)
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
    Dq = min_weight_excluding(cp.D1.as_linear_code(), cp.D2.as_linear_code().dual(), cap)
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
            coords = np.array([[ext.trace(ext.as_field().mul(int(x), ext.alpha_pow(j)))
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
    want = [[ext.as_field().mul(ext.alpha_pow(l), int(x)) for x in row]
            for row in M for l in range(ext.k)]
    got = _scaled(ext, M, ext.power_basis())  # the subfield rows
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
    for side, Hout in ((1, cp.Hout1), (2, cp.Hout2)):
        want = _parity_block_loop(inner, ext, Hout, side)
        assert np.array_equal(_gp(cp, side), want)
        assert np.array_equal(cp.parity_check(side), build_parity_check(inner, ext, Hout, side)[0])


def test_concatenate_retains_no_generator():
    """Set-up, decoding and MC never build L1/L2; parity_check builds a new
    Ho_i on each call and keeps none; the generators built on first access
    match the eager construction."""
    inner, ext = EXPANSIONS[1]
    cp = concatenate(inner, nested_grs_pair(ext, 15, 11, 11), ext)
    ctxs = (DecoderContext(cp, side=1), DecoderContext(cp, side=2))
    mc_error_rate(ctxs[0], AdditiveChannel.symmetric(F2, 0.05), 64, 3)
    assert "L1" not in vars(cp) and "L2" not in vars(cp)
    assert not np.shares_memory(cp.parity_check(1), cp.parity_check(1))
    assert wide_arrays(cp) == []
    eye = np.eye(cp.N, dtype=np.int64)
    for L, m, D, H_other in ((cp.L1, 1, cp.D1, inner.C2.H), (cp.L2, 2, cp.D2, inner.C1.H)):
        rows = [pi_map(m, inner, ext, ext.as_field().mul(ext.alpha_pow(l), D.G[r]))
                for r in range(D.K) for l in range(ext.k)]
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
    if name == "504_186":
        ext = Extension(F2, 6)
        return bvector_pair(F2, [1] * 8, [1] * 8), nested_grs_pair(ext, 63, 47, 47), ext
    ext = Extension(F3, 4)
    inner = bvector_pair(F3, [1] * 6, [1] * 6)
    if name == "480_160_gf3":
        return inner, nested_grs_pair(ext, 80, 60, 60), ext
    assert name == "96_32_gf3"
    return inner, nested_grs_pair(ext, 16, 12, 12), ext


CERTIFIED = ["12_2", "90_28", "480_160_gf3", "96_32_gf3"]


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_setup_matches_generic_path(name):
    cp = concatenate(*_inputs(name))
    f = cp.inner.field
    assert checked_verify_duality(cp)
    assert validate_css(cp.D1.as_linear_code(), cp.D2.as_linear_code())
    assert validate_css(cp.L1, cp.L2)
    for L, Ho in ((cp.L1, cp.parity_check(1)), (cp.L2, cp.parity_check(2))):
        assert LinearCode(f, L.G).dim == L.dim
        assert MatGF(f, Ho).rank == len(Ho) == cp.block_length - L.dim
        assert MatGF(f, Ho).same_row_space(L.Gmat.null_space())


@pytest.mark.parametrize("name", ["90_28", "480_160_gf3"])
def test_verify_duality_elimination_count(monkeypatch, name):
    """Three eliminations a side: the generator of L_i, its null space and
    the structured parity check."""
    cp = concatenate(*_inputs(name))
    calls = []
    for kind, rref in list(matrix._RREF.items()):
        def spy(*args, _rref=rref):
            calls.append(1)
            return _rref(*args)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    assert verify_duality(cp)
    assert len(calls) == 6


def test_verify_duality_past_cap_eliminates_nothing(monkeypatch):
    """A pair longer than concat.VERIFY_CAP raises TooLarge before any
    elimination; a pair of exactly that length is verified.  The cap admits
    [[2550,1016]], the longest pair CI verifies."""
    assert concat.VERIFY_CAP >= 2550
    cp = concatenate(*_inputs("90_28"))
    calls = []
    for kind, rref in list(matrix._RREF.items()):
        def spy(*args, _rref=rref):
            calls.append(1)
            return _rref(*args)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    monkeypatch.setattr(concat, "VERIFY_CAP", cp.block_length - 1)
    with pytest.raises(TooLarge):
        verify_duality(cp)
    assert calls == []
    monkeypatch.setattr(concat, "VERIFY_CAP", cp.block_length)
    assert verify_duality(cp) and len(calls) == 6


@pytest.mark.parametrize("name, bound_mb", [("504_186", 0.8), ("480_160_gf3", 1.2)])
def test_verify_duality_memory_is_bounded(name, bound_mb):
    """verify_duality holds one side's nN-column matrices at a time and keeps
    none: its traced peak is bounded, traced memory comes back to where it
    started, and nothing is written onto the pair, its outer codes or its
    inner pair -- L1/L2 are not built, and each Ho_i is a local too."""
    inputs = _inputs(name)
    assert verify_duality(concatenate(*inputs))  # the extension's lazy tables
    cp = concatenate(*inputs)
    owners = (cp, cp.D1, cp.D2, cp.inner, cp.inner.C1, cp.inner.C2)
    before = [dict(vars(o)) for o in owners]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert verify_duality(cp)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= bound_mb * 2**20
    assert end - start <= 65536
    assert "L1" not in vars(cp) and "L2" not in vars(cp) and wide_arrays(cp) == []
    for o, attrs in zip(owners, before):
        assert vars(o).keys() == attrs.keys()
        assert all(vars(o)[key] is value for key, value in attrs.items())


@pytest.mark.parametrize("name", ["90_28", "96_32_gf3"])
def test_outer_pair_without_containment_rejected(name):
    """dual(D2) = RS_4 is not inside D1 = RS_2: both paths reject it."""
    inner, (_, D2), ext = _inputs(name)
    N = D2.G.shape[1]
    D1 = GrsCode(ext, [ext.alpha_pow(j) for j in range(N)], [1] * N, 2)
    assert not validate_css(D1.as_linear_code(), D2.as_linear_code())
    with pytest.raises(NotOrthogonal):
        concatenate(inner, (D1, D2), ext)


@pytest.mark.parametrize("flip", [1, 2])
@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3"])
def test_flipped_expanded_check_rejected(name, flip):
    """The first dual multiplier of D1 or D2 changed on a copy of the outer
    code of a copy of the pair, which changes column 0 of Hout1 or Hout2:
    the check Ho_i that verify_duality builds from it has rows outside
    dual(L_i), and verify_duality rejects it.  concatenate gathers Gp_i
    from the pi table it certifies, so a flipped entry of Gp_i reaches it
    only as a flipped table row
    (test_trace_certificate_flipped_gp_matches_reference)."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    D = outer[flip - 1]
    u = D.dual_multipliers.copy()
    u[0] = ext.as_field().mul(int(u[0]), ext.alpha)
    bad = copy.copy(good)
    setattr(bad, f"D{flip}", _altered(D, dual_multipliers=u))
    assert not np.array_equal(_gp(bad, flip), _gp(good, flip))
    assert checked_verify_duality(good) and not checked_verify_duality(bad)


@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3"])
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


def test_outer_codes_are_grs_codes_over_the_extension():
    """concatenate takes two GrsCode objects over its extension and keeps
    them as the pair's outer codes, with their H as Hout1/Hout2.  A
    LinearCode on either side raises TypeError; GrsCodes over another
    extension of the same order raise FieldMismatch."""
    inner, outer, ext = _inputs("96_32_gf3")
    for side in (0, 1):
        mixed = list(outer)
        mixed[side] = outer[side].as_linear_code()
        with pytest.raises(TypeError):
            concatenate(inner, tuple(mixed), ext)
    other = Extension(F3, 4, [2, 2, 0, 0, 1])
    assert other != ext and other.Q == ext.Q
    with pytest.raises(FieldMismatch):
        concatenate(inner, nested_grs_pair(other, 16, 12, 12), ext)
    cp = concatenate(inner, outer, ext)
    assert cp.D1 is outer[0] and cp.D2 is outer[1]
    assert np.array_equal(cp.Hout1, outer[0].H) and np.array_equal(cp.Hout2, outer[1].H)
    assert DecoderContext(cp, side=1).grs is cp.D1 and DecoderContext(cp, side=2).grs is cp.D2


@pytest.mark.parametrize("name", ["90_28", "504_186", "480_160_gf3"])
def test_setup_eliminates_no_nN_column_matrix(monkeypatch, name):
    """concatenate and both decoder contexts eliminate only small matrices,
    and never a GF(Q) matrix of a GRS outer code.  Building the inputs takes
    at most 4 eliminations, all in the inner pair, and the whole set-up at
    most 7."""
    calls = []
    for kind, kernel in list(matrix._RREF.items()):
        def spy(f, a, kind=kind, kernel=kernel):
            calls.append((kind, a.shape[1]))
            return kernel(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    inner, outer, ext = _inputs(name)
    assert len(calls) <= 4
    cp = concatenate(inner, outer, ext)
    DecoderContext(cp, side=1)
    DecoderContext(cp, side=2)
    assert calls and len(calls) <= 7
    assert all(cols < cp.block_length for _, cols in calls)
    assert all(kind != "tables" for kind, _ in calls)


# -- the inner facts by product against the two-rank reference ---------------

def _check_inner_by_ranks(inner):
    """The facts (I) and (P) by two eliminations, then the product: the
    reference for concat._check_inner."""
    f, k = inner.field, inner.k
    A = np.concatenate([inner.C2.H, inner.g1], axis=0)
    B = np.concatenate([inner.C1.H, inner.g2], axis=0)
    if MatGF(f, A).rank != len(A) or MatGF(f, B).rank != len(B):
        raise RankDeficient("dependent")
    want = np.zeros((len(A), len(B)), dtype=np.int64)
    want[len(A) - k:, len(B) - k:] = np.eye(k, dtype=np.int64)
    if not np.array_equal(f.matmul(A, B.T), want):
        raise BadComplement("not paired")


def _inner_mutations(inner):
    """(name, mutated pair, exception) of three mutations, assembled without
    the pair's own validation where it would reject them."""
    f = inner.field
    dependent = copy.copy(inner)
    dependent.g1 = inner.g1.copy()
    dependent.g1[1] = f.add(inner.g1[0], inner.C2.H[0])
    # a paired pair whose C2.H repeats a row passes CssPair's products
    C2 = LinearCode.from_parity_check(f, np.concatenate([inner.C2.H, inner.C2.H[:1]]))
    redundant = CssPair(inner.C1, C2, inner.g1, inner.g2)
    for j in range(inner.n):
        flipped = copy.copy(inner)
        flipped.g2 = inner.g2.copy()
        flipped.g2[0, j] = (int(inner.g2[0, j]) + 1) % f.q
        B = np.concatenate([inner.C1.H, flipped.g2])
        if MatGF(f, B).rank == len(B):
            break
    else:  # pragma: no cover
        raise AssertionError("no flip of g2 keeps [C1.H; g2] at full rank")
    return [("dependent_g1", dependent, RankDeficient),
            ("redundant_C2H", redundant, RankDeficient),
            ("flipped_g2", flipped, BadComplement)]


@pytest.mark.parametrize("name", CERTIFIED)
def test_check_inner_keeps_exception_classes(name):
    """A dependent g1 and a repeated row of C2.H raise RankDeficient, a g2
    flip that keeps both ranks full raises BadComplement, in concatenate as
    in the two-rank reference; the valid pair passes both."""
    inner, outer, ext = _inputs(name)
    assert _outcome(concat._check_inner, inner) is _outcome(_check_inner_by_ranks, inner) is None
    for label, bad, exc in _inner_mutations(inner):
        assert _outcome(_check_inner_by_ranks, bad) is exc, label
        assert _outcome(concat._check_inner, bad) is exc, label
        with pytest.raises(exc):
            concatenate(bad, outer, ext)


@pytest.mark.parametrize("q", [2, 3])
def test_inner_certificate_is_one_product_per_pair(monkeypatch, q):
    """bvector_pair runs one product over GF(q), the certificate of its
    CssPair (codes._pairing), and concatenate runs one more, in
    _check_inner, beside the two pi tables and the two (B') products: no
    containment product C2.H.C1.H^T runs on a valid pair."""
    F = Field(q)
    ext = Extension(F, 4)
    ext.dual_table  # the extension's own tables are not counted here
    outer = nested_grs_pair(ext, 15, 11, 11)
    calls, matmul = [], Field.matmul

    def spy(self, A, B):
        calls.append((self.q, np.shape(A), np.shape(B)))
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    inner = bvector_pair(F, [1] * 6, [1] * 6)
    pairing = (q, (5, 6), (6, 5))  # [C2.H; g1] . [C1.H; g2]^T
    assert calls == [pairing]
    calls.clear()
    concatenate(inner, outer, ext)
    tables = [(q, (ext.Q, 4), (4, 6))] * 2  # PI_s = coords_s . g_s
    checks = [(q, (ext.Q, 6), (6, 5))] * 2  # (B'): PI_s . HgT_s
    assert sorted(calls) == sorted(tables + [pairing] + checks)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_check_inner_matches_rank_reference_on_random_mutations(q):
    """Random CSS pairs and single-entry changes of g1 or g2 or an added
    row of an inner check: concat._check_inner and the two-rank reference
    accept the same pairs and raise the same class."""
    f = Field(2, 2) if q == 4 else Field(q)
    rng = np.random.default_rng(100 + q)
    seen = set()
    for trial in range(60):
        n = int(rng.integers(2, 7))
        inner = random_css_pair(rng, f, n, int(rng.integers(1, n + 1)))
        assert _outcome(concat._check_inner, inner) is None
        bad = copy.copy(inner)
        what = trial % 3
        if what < 2:
            g = (inner.g1 if what == 0 else inner.g2).copy()
            i, j = rng.integers(0, g.shape[0]), rng.integers(0, n)
            g[i, j] = f.add(int(g[i, j]), int(rng.integers(1, q)))
            if what == 0:
                bad.g1 = g
            else:
                bad.g2 = g
        else:  # a redundant row, a combination of the others, in C1.H or C2.H
            codes = [inner.C1, inner.C2]
            side = int(rng.integers(2))
            H = codes[side].H
            extra = (f.add_reduce(f.mul(rng.integers(0, q, (len(H), 1)), H), axis=0)
                     if len(H) else np.zeros(n, dtype=f.dtype))
            codes[side] = LinearCode.from_parity_check(f, np.concatenate([H, extra[None]]))
            bad = CssPair(*codes, inner.g1, inner.g2)
        got = _outcome(concat._check_inner, bad)
        assert got is _outcome(_check_inner_by_ranks, bad)
        seen.add(got)
    assert {RankDeficient, BadComplement} <= seen


@pytest.mark.parametrize("name", ["12_2", "90_28", "504_186", "480_160_gf3"])
def test_setup_on_valid_grs_pair_eliminates_nothing(monkeypatch, name):
    """On a valid bvector pair with GRS outer codes, concatenate and both
    decoder contexts run no elimination once the inputs are built: (I)
    follows from the product (P) and the row counts of the inner checks."""
    inner, outer, ext = _inputs(name)
    calls = []
    for kind, kernel in list(matrix._RREF.items()):
        def spy(f, a, kind=kind, kernel=kernel):
            calls.append((kind, a.shape))
            return kernel(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    cp = concatenate(inner, outer, ext)
    DecoderContext(cp, side=1)
    DecoderContext(cp, side=2)
    assert calls == []


@pytest.mark.parametrize("q, n", [(2, 6), (3, 6)])
def test_contexts_share_the_pairs_records(q, n):
    """concatenate builds one Side record per side and both decoder contexts
    read the pair's: the HgT that (B') certifies is the one the decoder
    multiplies by.  Set-up on a fresh extension builds neither the
    trace-dual basis nor the inverse of dual_table."""
    F = Field(q)
    ext = Extension(F, n - 2)
    cp = concatenate(bvector_pair(F, [1] * n, [1] * n), nested_grs_pair(ext, 15, 11, 11), ext)
    ctxs = DecoderContext(cp, side=1), DecoderContext(cp, side=2)
    assert [ctx.record for ctx in ctxs] == list(cp.sides)
    assert cp.PI1 is cp.sides[0].PI and cp.PI2 is cp.sides[1].PI
    assert "from_dual_table" not in vars(ext)


# -- concatenate's certificate against the nN-column reference ----------------

def _pi_product_nonzero(ext, table, G, Gp):
    """Whether ``pi(G).Gp^T`` is nonzero over GF(q), for the rows of ``G``
    over GF(q^k) and the pi table ``table``, expanded a chunk of rows at a
    time."""
    f = ext.base
    step = max(chunk_rows(ext.k * Gp.shape[1], table.itemsize), len(Gp) // ext.k)
    return any(f.matmul(concat._expand(table, _scaled(ext, G[lo:lo + step], ext.power_basis())),
                        Gp.T).any()
               for lo in range(0, len(G), step))


def _nN_certificate(inner, ext, D, Hout, Gp):
    """The duality and containment checks by products nN columns wide:
    Gp1.Gp2^T, pi_1(D1).Gp1^T, pi_2(D2).Gp2^T and every block of Gp_i
    against the opposite inner dual."""
    f, n = inner.field, inner.n
    PI1, PI2 = (side.PI for side in concat._sides(inner, ext))
    if f.matmul(Gp[0], Gp[1].T).any():
        raise NotOrthogonal("outer pair violates the CSS containment")
    if (_pi_product_nonzero(ext, PI1, D[0].G, Gp[0])
            or _pi_product_nonzero(ext, PI2, D[1].G, Gp[1])
            or f.matmul(Gp[0].reshape(-1, n), inner.C2.H.T).any()
            or f.matmul(Gp[1].reshape(-1, n), inner.C1.H.T).any()):
        raise RankDeficient("expanded outer check is not orthogonal to the "
                            "concatenated code")


def _outcome(certify, *args):
    try:
        certify(*args)
    except (NotOrthogonal, RankDeficient, BadComplement) as e:
        return type(e)
    return None


def _altered(code, **fields):
    """A shallow copy of the GrsCode ``code`` with the named fields
    (points, multipliers, dual multipliers, ``_log_diff``, K) replaced, as
    if set after construction; its G and H are built from them."""
    new = copy.copy(code)
    for name, value in fields.items():
        setattr(new, name, value)
    return new


def _exact(D):
    """The exact path's verdict on the outer pair ``D``: True when
    :func:`outer_grs.certify_css_pair` proves the pair, NotOrthogonal when
    it rejects it, with no product over GF(q^k) either way, and False when
    it leaves the pair to those products."""
    fQ, over_Q = D[0].ext.as_field(), []
    matmul = Field.matmul

    def spy(self, A, B):
        over_Q.append(self is fQ)
        return matmul(self, A, B)

    with mock.patch.object(Field, "matmul", spy):
        outcome = _outcome(outer_grs.certify_css_pair, *D)
    if any(over_Q):
        return False
    return True if outcome is None else outcome


def _with_tables(sides, PI):
    """The :class:`concat.Side` records ``sides`` with their pi tables
    replaced by ``PI``, side 1 first."""
    return tuple(dataclasses.replace(side, PI=table) for side, table in zip(sides, PI))


def _certify(sides, D):
    """The outer half of concatenate's certificate on the GRS pair ``D``
    and the records ``sides``: (B') on every row of their pi tables, then
    :func:`outer_grs.certify_css_pair`."""
    if not concat._tables_hold(sides):
        raise RankDeficient("a pi-table row fails (B')")
    outer_grs.certify_css_pair(*D)


def _changed(fQ, x, rng):
    """The nonzero code ``x`` times a random code other than 0 and 1."""
    return fQ.mul(int(x), int(rng.integers(2, fQ.q)))


class _Case:
    """Inputs of the outer certificate."""

    def __init__(self, inner, outer, ext):
        self.inner, self.ext = inner, ext
        self.D = outer
        self.Hout = tuple(D.H for D in outer)
        self.sides = concat._sides(inner, ext)
        self.PI = tuple(side.PI for side in self.sides)

    def scaled(self, D=None):
        D = self.D if D is None else D
        return tuple(concat._scaled(self.ext, code.H, side.scales())
                     for code, side in zip(D, self.sides))

    def outcomes(self, D=None, PI=None):
        """:func:`_certify`, which concatenate runs, and the
        nN-column reference on the same outer pair and pi tables, the
        case's own where one is not given; the reference reads Hout_i =
        D_i.H and Gp_i = PI[y_i] gathered from the tables.  Returns the
        two outcomes."""
        D = self.D if D is None else D
        PI = self.PI if PI is None else PI
        y = self.scaled(D)
        Gp = (concat._expand(PI[1], y[0]), concat._expand(PI[0], y[1]))
        new = _outcome(_certify, _with_tables(self.sides, PI), D)
        return new, _outcome(_nN_certificate, self.inner, self.ext, D, tuple(c.H for c in D), Gp)


def _case(name):
    if name.startswith("12_2_"):  # (K1, K2) with a 0-row Hout on one side
        K1, K2 = (1, 3) if name == "12_2_K2=N" else (3, 1)
        ext = Extension(F2, 2)
        return _Case(bvector_pair(F2, [1] * 4, [1] * 4), nested_grs_pair(ext, 3, K1, K2), ext)
    if name == "60_14_gf4":
        inner, ext = EXPANSIONS[3]
        return _Case(inner, nested_grs_pair(ext, 15, 11, 11), ext)
    if name.startswith("90_28_at_0"):  # the points 0..14 of GF(16), 0 among them
        inner, ext = EXPANSIONS[1]
        K2 = 15 if name.endswith("K2=N") else 11
        return _Case(inner, _nested_on_points(ext, 15, 11, K2), ext)
    return _Case(*_inputs(name))


DIFFERENTIAL = CERTIFIED + ["12_2_K2=N", "12_2_K1=N", "60_14_gf4", "90_28_at_0", "90_28_at_0_K2=N"]


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_trace_certificate_matches_reference(name):
    """Both certificates accept the built pair, with a 0-row Hout on one side
    for the 12_2_K*=N and 90_28_at_0_K2=N cases, the exact path proving it,
    and classify the same changed dual multipliers, which change a column
    of Hout_i, and changed multipliers, which change a column of D_i.G.  A
    change of a multiplier of D_i passes exactly when Hout_i has no rows; a
    change of a dual multiplier never passes where Hout_i has rows."""
    case = _case(name)
    if name.endswith("=N"):
        assert min(len(H) for H in case.Hout) == 0
    assert _exact(case.D) is True
    assert case.outcomes() == (None, None)
    rng = np.random.default_rng(7)
    fQ = case.ext.as_field()
    for side in (0, 1):
        code = case.D[side]
        for key in ("dual_multipliers", "multipliers"):
            if key == "dual_multipliers" and code.K == code.N:
                continue
            for b in rng.permutation(code.N)[:6]:
                x = getattr(code, key).copy()
                x[b] = _changed(fQ, x[b], rng)
                D = list(case.D)
                D[side] = _altered(code, **{key: x})
                new, ref = case.outcomes(D=tuple(D))
                assert new is ref, (side, key, b)
                if key == "multipliers":
                    assert (new is None) is (code.K == code.N), (side, b)
                else:
                    assert new is not None, (side, b)


# -- the exact GRS certificate: fields changed after construction ------------

@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_row_flips_match_reference(name):
    """A multiplier or dual multiplier of D_i, which row 0 of D_i.G or
    Hout_i holds, changed to another code or to 0 -- at every point where
    G or H has one row (K = 1, N - K = 1) -- and a changed ``_log_diff``
    entry, which the exact path reads in (C): the exact path proves none
    of them, and the verdict of concatenate's certificate equals the
    nN-column reference's."""
    case = _case(name)
    fQ = case.ext.as_field()
    rng = np.random.default_rng(12)
    one_row = set()
    for side in (0, 1):
        code = case.D[side]
        for key, rows in (("multipliers", code.K), ("dual_multipliers", code.N - code.K)):
            if not rows:
                continue
            if rows == 1:
                one_row.add(key)
            M = getattr(code, key)
            cols = range(code.N) if rows == 1 else rng.permutation(code.N)[:4]
            changes = [(b, _changed(fQ, M[b], rng)) for b in cols]
            changes += [(int(rng.integers(code.N)), 0)]
            for b, value in changes:
                bad = M.copy()
                bad[b] = value
                D = list(case.D)
                D[side] = _altered(code, **{key: bad})
                assert _exact(tuple(D)) is not True, (side, key, b)
                new, ref = case.outcomes(D=tuple(D))
                assert new is ref, (side, key, b, value)
        log_diff = code._log_diff.copy()
        log_diff[0] = (log_diff[0] + 1) % (case.ext.Q - 1)
        D = list(case.D)
        D[side] = _altered(code, _log_diff=log_diff)
        assert _exact(tuple(D)) is False, side
        assert case.outcomes(D=tuple(D)) == (None, None), side
    if name.startswith("12_2"):
        assert one_row == ({"dual_multipliers"} if name == "12_2" else {"multipliers"})


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_points_match_reference(name):
    """Points the exact path cannot use send the pair to the two products
    over GF(q^k): a point duplicated on both codes, a point moved on D2
    alone, and D2 rebuilt on the points in reverse order, with its
    multipliers reversed.  Both codes rebuilt on points with one moved to
    a code no point uses, with their multipliers kept, are on shared
    distinct points with (C) holding on each, so the exact path decides
    the pair at (O).  Each gets the reference's verdict."""
    case = _case(name)
    D1, D2 = case.D
    ext = case.ext
    dup = D1.points.copy()
    dup[1] = dup[0]
    moved = D2.points.copy()
    moved[0] = np.setdiff1d(np.arange(ext.Q), moved)[0]
    log_diff = outer_grs._log_difference_products(ext, moved)
    rebuilt = tuple(GrsCode._on_points(ext, moved, c.multipliers, c.K, log_diff) for c in case.D)
    reversed_D2 = GrsCode(ext, D2.points[::-1], D2.multipliers[::-1], D2.K)
    for D in ((_altered(D1, points=dup), _altered(D2, points=dup)),
              (D1, _altered(D2, points=moved)),
              (D1, reversed_D2)):
        assert _exact(D) is False
        new, ref = case.outcomes(D=D)
        assert new is ref
    new, ref = case.outcomes(D=rebuilt)
    assert new is ref and _exact(rebuilt) is (True if new is None else NotOrthogonal)


@pytest.mark.parametrize("name", ["12_2", "12_2_K2=N", "90_28_at_0_K2=N"])
def test_log_diff_bound_to_its_points(name):
    """Both codes with their last point moved to a code no point uses and
    their ``_log_diff`` kept: (C) would pass on the stale logs, so the exact
    path does not prove the pair but leaves it to the products over
    GF(q^k), whose verdict, RankDeficient, is the nN-column reference's."""
    case = _case(name)
    moved = case.D[0].points.copy()
    moved[-1] = np.setdiff1d(np.arange(case.ext.Q), moved)[0]
    D = tuple(_altered(code, points=moved) for code in case.D)
    assert _exact(D) is False
    assert case.outcomes(D=D) == (RankDeficient, RankDeficient)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_row_counts_match_reference(name):
    """K_i changed by one on a copy of D_i, so that G has one row more or
    less and H one row less or more: the exact path proves the pair or
    rejects it at a power sum of (O), and the verdict equals the
    reference's.  Where D2 has D1's dual multipliers, as nested_grs_pair
    builds it for K2 < N, the pair passes exactly when K1 + K2 >= N still
    holds."""
    case = _case(name)
    N = case.D[0].N
    nested = np.array_equal(case.D[1].multipliers, case.D[0].dual_multipliers)
    for side in (0, 1):
        code = case.D[side]
        for K in (code.K - 1, code.K + 1):
            if not 1 <= K <= N:
                continue
            D = list(case.D)
            D[side] = _altered(code, K=K)
            new, ref = case.outcomes(D=tuple(D))
            assert new is ref and new in (None, NotOrthogonal), (side, K)
            assert _exact(tuple(D)) is (True if new is None else NotOrthogonal)
            if nested:
                assert (new is None) is (D[0].K + D[1].K >= N), (side, K)


# -- corrupted pi tables: Gp_i is gathered from them --------------------------

def _corrupted(table, x, row):
    bad = table.copy()
    bad[x] = row
    return bad


def _table_outcomes(case, side, x, row):
    """Whether (B') holds on the tables, and both verdicts, with row ``x``
    of the pi table that y_side reads, PI2 for side 1 and PI1 for side 2,
    replaced by ``row``."""
    PI = list(case.PI)
    PI[2 - side] = _corrupted(PI[2 - side], x, row)
    return (concat._tables_hold(_with_tables(case.sides, PI)), *case.outcomes(PI=tuple(PI)))


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_trace_certificate_flipped_gp_matches_reference(name):
    """Gp_i is gathered from a pi table, so a flipped entry of Gp_i is a
    flipped entry of a table row that y_i reads, repeated in every block
    that reads it.  Each of the n entries of one used row, and the first
    entry of up to 40 more used rows, flipped: (B') fails on the table, so
    concatenate's certificate raises RankDeficient, and the nN-column
    reference rejects it too.  A change that keeps every postcondition adds
    an element of the opposite inner dual, and on these pairs that dual is
    spanned by the all-ones vector (see
    test_corrupted_pi_table_matches_reference)."""
    case = _case(name)
    q, n = case.inner.field.q, case.inner.n
    rng = np.random.default_rng(11)
    for side, y in zip((1, 2), case.scaled()):
        used = np.unique(y)
        if not used.size:  # a 0-row Hout reads no row
            continue
        x = int(rng.choice(used))
        flips = [(x, c) for c in range(n)] + [(int(u), 0) for u in rng.permutation(used)[:40]]
        for x, c in flips:
            row = case.PI[2 - side][x].copy()
            row[c] = (row[c] + rng.integers(1, q)) % q
            holds, new, ref = _table_outcomes(case, side, x, row)
            assert not holds and new is RankDeficient and ref is not None, (side, x, c)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_trace_certificate_g_part_shift_matches_reference(name):
    """Adding a row of g2 to a row of PI2 that y1 reads (of g1 to a row of
    PI1 that y2 reads) keeps its blocks in their inner code but changes
    their g-part, so (B') fails on the row and the certificate raises
    RankDeficient for every such shift.  The reference rejects it too,
    except on 12_2: it checks products, not g-parts, and there every block
    of a row of y2 reads one code, so the shifted row is the expansion of
    another multiple of the Hout2 row, Ho2 keeps its row space and the
    reference accepts."""
    case = _case(name)
    f = case.inner.field
    for side, y, g in zip((1, 2), case.scaled(), (case.inner.g2, case.inner.g1)):
        for x in np.unique(y):
            holds, new, ref = _table_outcomes(case, side, x, f.add(case.PI[2 - side][x], g[0]))
            assert not holds and new is RankDeficient, (side, x)
            assert ref is not None or name == "12_2", (side, x)


# on 90_28_at_0 the scaled Hout entries read every row of both tables
@pytest.mark.parametrize("name", [name for name in DIFFERENTIAL if name != "90_28_at_0"])
def test_corrupted_pi_table_matches_reference(name):
    """A used pi-table row shifted by a row of the opposite inner dual, and
    a row that no y_i reads plus the all-ones vector: on these pairs the
    all-ones vector spans the inner duals, so (B') holds on both rows and
    both certificates accept.  One entry of a row that no y_i reads,
    flipped: Gp_i is unchanged and the nN-column reference accepts, but
    (B') fails on the table and concatenate's certificate raises
    RankDeficient, as decoding may read every row.  Flips and g-part
    shifts of a used row are in the two tests above."""
    case = _case(name)
    inner, ext = case.inner, case.ext
    f, q = inner.field, inner.field.q
    unused_seen = False
    for side, y in zip((1, 2), case.scaled()):
        table = case.PI[2 - side]
        H_other = inner.C1.H if side == 1 else inner.C2.H
        used = np.zeros(ext.Q, dtype=bool)
        used[y] = True
        for x in np.flatnonzero(used)[-1:]:  # the 0-row Hout sides use none
            assert _table_outcomes(case, side, x, f.add(table[x], H_other[0])) == (True, None, None)
        unused = np.flatnonzero(~used)
        if unused.size:
            unused_seen = True
            x = unused[0]
            row = (table[x] + 1) % q
            assert np.array_equal(concat._expand(_corrupted(table, x, row), y),
                                  concat._expand(table, y))
            assert _table_outcomes(case, side, x, row) == (True, None, None)
            row = table[x].copy()
            row[0] = (row[0] + 1) % q
            assert _table_outcomes(case, side, x, row) == (False, RankDeficient, None)
    if not unused_seen:
        pytest.skip("the scaled Hout entries use every code of GF(Q) on both "
                    "sides: no pi-table row is left to corrupt unseen")


@pytest.mark.parametrize("name", ["90_28", "96_32_gf3"])
def test_trace_certificate_containment_break_matches_reference(name):
    """The outer pair of test_outer_pair_without_containment_rejected, and
    D2 built as in nested_grs_pair but with K2 = N - 1 - K1: every power
    sum of u1 u2 in Hout1.Hout2^T vanishes but the one of degree N - 1."""
    inner, (D1_nested, D2), ext = _inputs(name)
    N = D2.G.shape[1]
    D1 = GrsCode(ext, [ext.alpha_pow(j) for j in range(N)], [1] * N, 2)
    case = _Case(inner, (D1, D2), ext)
    assert case.outcomes() == (NotOrthogonal, NotOrthogonal)
    short = GrsCode._on_points(ext, D1_nested.points, D1_nested.dual_multipliers,
                               N - 1 - D1_nested.K, D1_nested._log_diff)
    assert _exact((D1_nested, short)) is NotOrthogonal
    assert case.outcomes(D=(D1_nested, short)) == (NotOrthogonal, NotOrthogonal)


@pytest.mark.parametrize("step", [1, 2, 5])
def test_power_sums_in_row_slices(monkeypatch, step):
    """(O) sums the power sums of u1 u2 in slices of chunk_rows(N) degrees,
    with 0^0 = 1 in degree 0 only: slices of 1, 2 and 5 degrees accept the
    valid pairs, with a point 0 among them, and reject the pair that fails
    only at degree N - 1 (the last slice)."""
    monkeypatch.setattr(outer_grs, "chunk_rows", lambda width, itemsize=8: step)
    for name in ("90_28", "96_32_gf3", "90_28_at_0", "12_2"):
        case = _case(name)
        assert _exact(case.D) is True, name
    for name in ("90_28", "96_32_gf3"):
        _, (D1, _), ext = _inputs(name)
        short = GrsCode._on_points(ext, D1.points, D1.dual_multipliers,
                                   D1.N - 1 - D1.K, D1._log_diff)
        assert _exact((D1, short)) is NotOrthogonal, name


@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3"])
def test_inner_dual_shift_passes_both_certificates(name):
    """Adding a row of dual(C1) to the row of PI2 that block 1 of the first
    row of Gp1 reads (of dual(C2) to a row of PI1, for Gp2) keeps every
    block that reads it in its inner code with the same g-part, so every
    postcondition holds: the elimination-based verify_duality accepts the
    checks it builds from the shifted table of a copy of the pair.
    concatenate's certificate, with (B') holding on the shifted row, and
    the nN-column reference accept the same shift
    (test_corrupted_pi_table_matches_reference)."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    f = inner.field
    for side, H, D in ((1, inner.C1.H, good.D1), (2, inner.C2.H, good.D2)):
        x = concat._scaled(ext, D.H, good.sides[side - 1].scales())[0, 1]
        PI = [this.PI for this in good.sides]
        PI[2 - side] = _corrupted(PI[2 - side], x, f.add(PI[2 - side][x], H[0]))
        shifted = copy.copy(good)
        shifted.sides = _with_tables(good.sides, PI)
        moved = f.sub(_gp(shifted, side), _gp(good, side)).reshape(-1, inner.n)
        assert moved.any() and (moved[moved.any(axis=1)] == H[0]).all()
        assert checked_verify_duality(shifted)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_verify_duality_matches_eliminating_reference_on_changed_pairs(name):
    """On copies of the pair with a pi-table row that a y_i reads changed,
    by an entry flip, by a row of g_o (both fail (B')) or by a row of the
    opposite inner dual, and with a multiplier or dual multiplier of D_i
    changed, verify_duality gives the verdict of the reference that also
    compares the expected dual built from the null space of D_i.G."""
    case = _case(name)
    good = concatenate(case.inner, case.D, case.ext)
    f, n = case.inner.field, case.inner.n
    fQ = case.ext.as_field()
    rng = np.random.default_rng(5)
    pairs = []
    for side, y, g in zip((1, 2), case.scaled(), (case.inner.g2, case.inner.g1)):
        table = case.PI[2 - side]
        H_other = case.inner.C1.H if side == 1 else case.inner.C2.H
        for x in rng.permutation(np.unique(y))[:2]:
            flipped = table[x].copy()
            flipped[rng.integers(n)] = f.add(int(flipped[0]), 1)
            for row in (flipped, f.add(table[x], g[0]), f.add(table[x], H_other[0])):
                PI = list(case.PI)
                PI[2 - side] = _corrupted(table, x, row)
                pairs.append(dataclasses.replace(good, sides=_with_tables(good.sides, PI)))
        code = case.D[side - 1]
        for key in ("multipliers", "dual_multipliers"):
            x = getattr(code, key).copy()
            x[0] = _changed(fQ, x[0], rng)
            pairs.append(dataclasses.replace(good, **{f"D{side}": _altered(code, **{key: x})}))
    verdicts = [checked_verify_duality(cp) for cp in pairs]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("name", ["90_28", "504_186", "480_160_gf3", "96_32_gf3",
                                  "60_14_gf4", "12_2_K2=N", "90_28_at_0"])
def test_concatenate_products_at_most_kN_wide(monkeypatch, name):
    """No product in concatenate over GF(q) has an inner dimension above n,
    and none over GF(q^k) above N: on the valid pair, which the exact path
    proves with products over GF(q) alone, and on pairs it does not prove
    -- D2 rebuilt on the points in reverse order, a changed multiplier of
    D1, which changes column 0 of D1.G -- judged by the two GF(q^k)
    products.  D2 with K2 = N - 1 - K1 fails a power sum of (O) and is
    rejected with no product over GF(q^k).  The structured checks are not
    built."""
    case = _case(name)
    D1, D2 = case.D
    ext, fQ = case.ext, case.ext.as_field()
    calls = []
    matmul = Field.matmul

    def spy(self, A, B):
        calls.append((self is fQ, np.shape(A)[-1]))
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    cp = concatenate(case.inner, case.D, ext)
    assert calls and all(not over_Q and width <= cp.n for over_Q, width in calls)
    assert wide_arrays(cp) == []
    v = D1.multipliers.copy()
    v[0] = fQ.mul(int(v[0]), ext.alpha)
    for D in ((D1, GrsCode(ext, D2.points[::-1], D2.multipliers[::-1], D2.K)),
              (_altered(D1, multipliers=v), D2)):
        assert _exact(D) is False
        calls.clear()
        _outcome(concatenate, case.inner, D, ext)
        assert any(over_Q for over_Q, _ in calls)
        assert all(width <= (cp.N if over_Q else cp.n) for over_Q, width in calls)
    if D1.K < cp.N - 1:
        short = GrsCode._on_points(ext, D1.points, D1.dual_multipliers,
                                   cp.N - 1 - D1.K, D1._log_diff)
        calls.clear()
        assert _outcome(concatenate, case.inner, (D1, short), ext) is NotOrthogonal
        assert calls and all(not over_Q and width <= cp.n for over_Q, width in calls)


def test_power_sum_rejection_runs_no_product_over_the_extension(monkeypatch):
    """The pair of inner [[12,10]] with RS[1023,767]/GF(1024) and D2 built
    with K2 = N - 1 - K1 fails (O) only at the power sum of degree N - 1:
    concatenate raises NotOrthogonal with no product over GF(q^k).  The
    nN-column reference raises NotOrthogonal as soon as Gp1.Gp2^T has a
    nonzero entry, and the block of the last row of Hout1 against the last
    row of Hout2, whose entry is that power sum, has one."""
    ext = Extension(F2, 10)
    inner = bvector_pair(F2, [1] * 12, [1] * 12)
    D1, _ = nested_grs_pair(ext, 1023, 767, 767)
    short = GrsCode._on_points(ext, D1.points, D1.dual_multipliers, 1023 - 1 - 767, D1._log_diff)
    fQ = ext.as_field()
    over_Q = []
    matmul = Field.matmul

    def spy(self, A, B):
        over_Q.append(self is fQ)
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    with pytest.raises(NotOrthogonal):
        concatenate(inner, (D1, short), ext)
    assert over_Q and not any(over_Q)
    side1, side2 = concat._sides(inner, ext)
    Gp1_last = concat._expand(side2.PI, _scaled(ext, D1.H[-1:], side1.scales()))
    Gp2_last = concat._expand(side1.PI, _scaled(ext, short.H[-1:], side2.scales()))
    assert F2.matmul(Gp1_last, Gp2_last.T).any()


def _matmul_rows(monkeypatch):
    rows = []
    matmul = Field.matmul

    def spy(self, A, B):
        rows.append(len(np.reshape(A, (-1, np.shape(A)[-1]))))
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    return rows


@pytest.mark.parametrize("name", ["90_28", "504_186", "480_160_gf3", "96_32_gf3"])
def test_concatenate_multiplies_blocks_only_after_a_failed_lookup(monkeypatch, name):
    """No product in concatenate has more than max(Q, kM) rows, on a valid
    pair and when PI1 has a flipped entry in a row that y2 reads: the
    blocks of Gp_i are never multiplied, the flipped row fails (B') in the
    product of the table and raises RankDeficient."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    k, N, Q = good.k, good.N, ext.Q
    M = max(len(good.Hout1), len(good.Hout2))
    x = int(concat._scaled(ext, good.Hout2, good.sides[1].scales())[0, 0])
    rows = _matmul_rows(monkeypatch)
    concatenate(inner, outer, ext)
    assert rows and max(rows) <= max(Q, k * M) < k * M * N
    build = concat._sides

    def corrupt(pair, ext):
        side1, side2 = build(pair, ext)
        side1.PI[x, 0] = (side1.PI[x, 0] + 1) % pair.field.q
        return side1, side2

    monkeypatch.setattr(concat, "_sides", corrupt)
    rows.clear()
    with pytest.raises(RankDeficient, match="fails"):
        concatenate(inner, outer, ext)
    assert rows and max(rows) <= max(Q, k * M)
