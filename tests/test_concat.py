"""Concatenation: golden parity-check block, duality, syndrome identity,
and the quotient-distance product law."""

import copy
import tracemalloc

import numpy as np
import pytest

from cssconcat import concat, matrix
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
)
from cssconcat.galois import Extension, Field
from cssconcat.matrix import MatGF, chunk_rows
from cssconcat.outer_grs import GrsCode, nested_grs_pair
from references import pi_rows, random_css_pair, wide_arrays

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
    got = _scaled(ext, M, 2)  # the subfield rows
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
    assert verify_duality(cp)
    assert validate_css(cp.D1.as_linear_code(), cp.D2.as_linear_code())
    assert validate_css(cp.L1, cp.L2)
    for L, Ho in ((cp.L1, cp.parity_check(1)), (cp.L2, cp.parity_check(2))):
        assert LinearCode(f, L.G).dim == L.dim
        assert MatGF(f, Ho).rank == len(Ho) == cp.block_length - L.dim
        assert MatGF(f, Ho).same_row_space(L.Gmat.null_space())


@pytest.mark.parametrize("name", ["90_28", "480_160_gf3"])
def test_verify_duality_elimination_count(monkeypatch, name):
    """Five eliminations a side: the outer generator, the generator of L_i,
    the null space of L_i (once, for both comparisons), the expected dual
    and the structured parity checks."""
    cp = concatenate(*_inputs(name))
    calls = []
    for kind, rref in list(matrix._RREF.items()):
        def spy(*args, _rref=rref):
            calls.append(1)
            return _rref(*args)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    assert verify_duality(cp)
    assert len(calls) == 10


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
    """One flipped entry of Hout1 or Hout2, set on a copy of the outer code
    of a copy of the pair: the check Ho_i that verify_duality builds from
    it has k rows outside dual(L_i), and verify_duality rejects it.
    concatenate gathers Gp_i from the pi table it certifies, so a flipped
    entry of Gp_i reaches it only as a flipped table row
    (test_trace_certificate_flipped_gp_matches_reference)."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    D = outer[flip - 1]
    H = D.H.copy()
    H[0, 0] = (H[0, 0] + 1) % ext.Q
    bad = copy.copy(good)
    setattr(bad, f"D{flip}", _altered(D, H=H))
    assert not np.array_equal(_gp(bad, flip), _gp(good, flip))
    assert verify_duality(good) and not verify_duality(bad)


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
    assert cp.Hout1 is outer[0].H and cp.Hout2 is outer[1].H
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


# -- the trace-form certificate against the nN-column reference ----------------

def _pi_product_nonzero(ext, table, G, Gp):
    """Whether ``pi(G).Gp^T`` is nonzero over GF(q), for the rows of ``G``
    over GF(q^k) and the pi table ``table``, expanded a chunk of rows at a
    time."""
    f = ext.base
    step = max(chunk_rows(ext.k * Gp.shape[1], table.itemsize), len(Gp) // ext.k)
    return any(f.matmul(concat._expand(table, _scaled(ext, G[lo:lo + step], 2)), Gp.T).any()
               for lo in range(0, len(G), step))


def _nN_certificate(inner, ext, D, Hout, Gp):
    """The duality and containment checks by products nN columns wide:
    Gp1.Gp2^T, pi_1(D1).Gp1^T, pi_2(D2).Gp2^T and every block of Gp_i
    against the opposite inner dual."""
    f, n = inner.field, inner.n
    PI1, PI2 = concat.pi_table(1, inner, ext), concat.pi_table(2, inner, ext)
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


def _altered(code, **arrays):
    """A shallow copy of the GrsCode ``code`` with the named arrays
    replaced, as if set after construction."""
    new = copy.copy(code)
    for name, value in arrays.items():
        setattr(new, name, value)
    return new


class _Case:
    """Inputs of the outer certificate."""

    def __init__(self, inner, outer, ext):
        self.inner, self.ext = inner, ext
        self.D = outer
        self.Hout = tuple(D.H for D in outer)
        self.PI = (concat.pi_table(1, inner, ext), concat.pi_table(2, inner, ext))

    def scaled(self, D=None):
        D = self.D if D is None else D
        return concat._scaled(self.ext, D[0].H, 1), concat._scaled(self.ext, D[1].H, 2)

    def outcomes(self, D=None, PI=None):
        """:func:`concat._certify`, which concatenate runs, and the
        nN-column reference on the same outer pair and pi tables, the
        case's own where one is not given; the reference reads Hout_i =
        D_i.H and Gp_i = PI[y_i] gathered from the tables.  The trace-form
        certificate alone, the parent of the exact path, gives the same
        verdict as concat._certify.  Returns the two outcomes."""
        D = self.D if D is None else D
        PI = self.PI if PI is None else PI
        y = self.scaled(D)
        Gp = (concat._expand(PI[1], y[0]), concat._expand(PI[0], y[1]))
        new = _outcome(concat._certify, self.inner, self.ext, D, PI)
        assert new is _outcome(concat._certify_outer, self.inner, self.ext, D, y, PI)
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
    and classify the same flipped Hout entries and flipped symbols of D1.G
    and D2.G.  A flip of D_i.G passes exactly when Hout_i has no rows."""
    case = _case(name)
    if name.endswith("=N"):
        assert min(len(H) for H in case.Hout) == 0
    assert concat._grs_pair_holds(case.ext, case.D)
    assert case.outcomes() == (None, None)
    rng = np.random.default_rng(7)
    fQ = case.ext.as_field()
    for side in (0, 1):
        H = case.Hout[side]
        for _ in range(min(H.size, 6)):
            D = list(case.D)
            D[side] = _altered(D[side], H=H.copy())
            j, b = rng.integers(0, H.shape[0]), rng.integers(0, H.shape[1])
            D[side].H[j, b] = fQ.add(int(H[j, b]), int(rng.integers(1, fQ.q)))
            new, ref = case.outcomes(D=tuple(D))
            assert new is ref is not None
    rng = np.random.default_rng(8)
    for side in (0, 1):
        G = case.D[side].G
        for _ in range(6):
            D = list(case.D)
            D[side] = _altered(D[side], G=G.copy())
            j, b = rng.integers(0, G.shape[0]), rng.integers(0, G.shape[1])
            D[side].G[j, b] = fQ.add(int(G[j, b]), int(rng.integers(1, fQ.q)))
            new, ref = case.outcomes(D=tuple(D))
            assert new is ref
            assert (new is None) is (len(case.Hout[side]) == 0), (side, j, b)


# -- the exact GRS certificate: its arrays changed after construction --------

@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_row_flips_match_reference(name):
    """A changed entry of row 0 of D_i.G or D_i.H, the multipliers, to
    another code or to 0 -- every entry where G or H has one row (K = 1,
    N - K = 1) -- and a zeroed column, a zeroed multiplier: the exact path
    proves none of them, and the verdict of concatenate's certificate
    equals the nN-column reference's."""
    case = _case(name)
    fQ = case.ext.as_field()
    rng = np.random.default_rng(12)
    one_row = set()
    for side in (0, 1):
        for key in ("G", "H"):
            M = getattr(case.D[side], key)
            if not len(M):
                continue
            if len(M) == 1:
                one_row.add(key)
            cols = range(M.shape[1]) if len(M) == 1 else rng.permutation(M.shape[1])[:4]
            changes = [(b, fQ.add(int(M[0, b]), int(rng.integers(1, fQ.q)))) for b in cols]
            changes += [(int(rng.integers(M.shape[1])), 0), (None, 0)]
            for b, value in changes:
                bad = M.copy()
                if b is None:
                    bad[:, int(rng.integers(M.shape[1]))] = 0
                else:
                    bad[0, b] = value
                D = list(case.D)
                D[side] = _altered(D[side], **{key: bad})
                assert not concat._grs_pair_holds(case.ext, tuple(D)), (side, key, b)
                new, ref = case.outcomes(D=tuple(D))
                assert new is ref, (side, key, b, value)
    if name.startswith("12_2"):
        assert one_row == ({"H"} if name == "12_2" else {"G"})


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_points_match_reference(name):
    """Points the exact path cannot use send the pair down the trace-form
    path, which reads no points: a point duplicated on both codes, and a
    point moved on D2 alone, leave the arrays a valid pair, accepted by
    both certificates; D2 rebuilt on the points in reverse order, with
    its multipliers reversed, is on other points, and both codes built on
    the duplicated points, with the logs of the difference products of the
    distinct ones, have arrays of the right form, but (R) fails: each
    gets the reference's verdict."""
    case = _case(name)
    D1, D2 = case.D
    ext = case.ext
    dup = D1.points.copy()
    dup[1] = dup[0]
    moved = D2.points.copy()
    moved[0] = np.setdiff1d(np.arange(ext.Q), moved)[0] if D2.N < ext.Q else moved[1]
    reversed_D2 = GrsCode(ext, D2.points[::-1], D2.multipliers[::-1], D2.K)
    on_dup = tuple(GrsCode._on_points(ext, dup, c.multipliers, c.K, c._log_diff) for c in case.D)
    for D, accepted in (((_altered(D1, points=dup), _altered(D2, points=dup)), True),
                        ((D1, _altered(D2, points=moved)), True),
                        ((D1, reversed_D2), None),
                        (on_dup, None)):
        assert not concat._grs_pair_holds(ext, D)
        new, ref = case.outcomes(D=D)
        assert new is ref
        if accepted:
            assert new is None


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_exact_certificate_row_counts_match_reference(name):
    """A row appended to D_i.G or D_i.H that continues its powers keeps the
    form the exact path reads, but G has more than K_i rows or H more than
    N - K_i: the exact path proves neither, and the verdict equals the
    reference's (an extra row of H meets G in the power sum of degree
    N - 1, which is nonzero)."""
    case = _case(name)
    fQ = case.ext.as_field()
    for side in (0, 1):
        code = case.D[side]
        for key in ("G", "H"):
            M = getattr(code, key)
            row = fQ.mul_table[M[-1], code.points] if len(M) else code.dual_multipliers
            D = list(case.D)
            D[side] = _altered(code, **{key: np.concatenate([M, row[None]])})
            assert not concat._grs_pair_holds(case.ext, tuple(D)), (side, key)
            new, ref = case.outcomes(D=tuple(D))
            assert new is ref, (side, key)
            if key == "H":
                assert new is not None


# -- corrupted pi tables: Gp_i is gathered from them --------------------------

def _corrupted(table, x, row):
    bad = table.copy()
    bad[x] = row
    return bad


def _table_outcomes(case, side, x, row):
    """Both verdicts with row ``x`` of the pi table that y_side reads, PI2
    for side 1 and PI1 for side 2, replaced by ``row``."""
    PI = list(case.PI)
    PI[2 - side] = _corrupted(PI[2 - side], x, row)
    return case.outcomes(PI=tuple(PI))


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_trace_certificate_flipped_gp_matches_reference(name):
    """Gp_i is gathered from a pi table, so a flipped entry of Gp_i is a
    flipped entry of a table row that y_i reads, repeated in every block
    that reads it.  Each of the n entries of one used row, and the first
    entry of up to 40 more used rows, flipped: both certificates give the
    same verdict, and none passes.  A change that keeps every
    postcondition adds an element of the opposite inner dual, and on these
    pairs that dual is spanned by the all-ones vector (see
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
            new, ref = _table_outcomes(case, side, x, row)
            assert new is ref is not None, (side, x, c)


@pytest.mark.parametrize("name", DIFFERENTIAL)
def test_trace_certificate_g_part_shift_matches_reference(name):
    """Adding a row of g2 to a row of PI2 that y1 reads (of g1 to a row of
    PI1 that y2 reads) keeps its blocks in their inner code but changes
    their g-part, so (B) fails and the certificate rejects every such
    shift.  Where the reference rejects it too the classes agree,
    NotOrthogonal unless the other side's Hout has no rows.  The reference
    checks products, not g-parts: on 12_2 every block of a row of y2 reads
    one code, so the shifted row is the expansion of another multiple of
    the Hout2 row, Ho2 keeps its row space and the reference accepts; the
    shifted g-parts pair to zero with W1, so the certificate raises
    RankDeficient."""
    case = _case(name)
    f = case.inner.field
    for side, y, g in zip((1, 2), case.scaled(), (case.inner.g2, case.inner.g1)):
        for x in np.unique(y):
            new, ref = _table_outcomes(case, side, x, f.add(case.PI[2 - side][x], g[0]))
            if ref is None:
                assert new is RankDeficient and name == "12_2", (side, x)
            else:
                want = NotOrthogonal if len(case.Hout[2 - side]) else RankDeficient
                assert new is ref is want, (side, x)


# on 90_28_at_0 the scaled Hout entries read every row of both tables
@pytest.mark.parametrize("name", [name for name in DIFFERENTIAL if name != "90_28_at_0"])
def test_corrupted_pi_table_matches_reference(name):
    """A used pi-table row shifted by a row of the opposite inner dual: (B')
    fails on it, but every block still passes (B), so both certificates
    accept.  A row that no y_i reads, flipped: Gp_i is unchanged and both
    accept, though (B') fails on the table.  Flips and g-part shifts of a
    used row are in the two tests above."""
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
            assert _table_outcomes(case, side, x, f.add(table[x], H_other[0])) == (None, None)
        unused = np.flatnonzero(~used)
        if unused.size:
            unused_seen = True
            x = unused[0]
            row = (table[x] + 1) % q
            assert np.array_equal(concat._expand(_corrupted(table, x, row), y),
                                  concat._expand(table, y))
            assert _table_outcomes(case, side, x, row) == (None, None)
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
    assert not concat._grs_pair_holds(ext, (D1_nested, short))
    assert case.outcomes(D=(D1_nested, short)) == (NotOrthogonal, NotOrthogonal)


@pytest.mark.parametrize("step", [1, 2, 5])
def test_power_sums_in_row_slices(monkeypatch, step):
    """(O) sums the power sums of u1 u2 in slices of chunk_rows(N) degrees,
    with 0^0 = 1 in degree 0 only: slices of 1, 2 and 5 degrees accept the
    valid pairs, with a point 0 among them, and reject the pair that fails
    only at degree N - 1 (the last slice)."""
    monkeypatch.setattr(concat, "chunk_rows", lambda width, itemsize=8: step)
    for name in ("90_28", "96_32_gf3", "90_28_at_0", "12_2"):
        case = _case(name)
        assert concat._grs_pair_holds(case.ext, case.D), name
    for name in ("90_28", "96_32_gf3"):
        _, (D1, _), ext = _inputs(name)
        short = GrsCode._on_points(ext, D1.points, D1.dual_multipliers,
                                   D1.N - 1 - D1.K, D1._log_diff)
        assert not concat._grs_pair_holds(ext, (D1, short)), name


@pytest.mark.parametrize("name", ["12_2", "90_28", "96_32_gf3"])
def test_inner_dual_shift_passes_both_certificates(name):
    """Adding a row of dual(C1) to the row of PI2 that block 1 of the first
    row of Gp1 reads (of dual(C2) to a row of PI1, for Gp2) keeps every
    block that reads it in its inner code with the same g-part, so every
    postcondition holds: the elimination-based verify_duality accepts the
    checks it builds from the shifted table of a copy of the pair.  The
    trace-form certificate and the nN-column reference accept the same
    shift (test_corrupted_pi_table_matches_reference)."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    f = inner.field
    for side, H, D, table in ((1, inner.C1.H, good.D1, "PI2"), (2, inner.C2.H, good.D2, "PI1")):
        x = concat._scaled(ext, D.H, side)[0, 1]
        shifted = copy.copy(good)
        setattr(shifted, table, _corrupted(getattr(good, table), x, f.add(getattr(good, table)[x], H[0])))
        moved = f.sub(_gp(shifted, side), _gp(good, side)).reshape(-1, inner.n)
        assert moved.any() and (moved[moved.any(axis=1)] == H[0]).all()
        assert verify_duality(shifted)


@pytest.mark.parametrize("name", ["90_28", "504_186", "480_160_gf3", "96_32_gf3",
                                  "60_14_gf4", "12_2_K2=N", "90_28_at_0"])
def test_concatenate_products_at_most_kN_wide(monkeypatch, name):
    """No product in concatenate has an inner dimension above kN; on these
    valid pairs none is above n, as the exact path proves the outer pair
    and never calls the trace-form certificate.  The structured checks
    are not built."""
    case = _case(name)
    widths, fallbacks = [], []
    matmul = Field.matmul

    def spy(self, A, B):
        widths.append(np.shape(A)[-1])
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    monkeypatch.setattr(concat, "_certify_outer", lambda *args: fallbacks.append(args))
    cp = concatenate(case.inner, case.D, case.ext)
    assert widths and max(widths) <= cp.n <= cp.k * cp.N < cp.block_length and not fallbacks
    assert wide_arrays(cp) == []


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
    blocks of Gp_i are never multiplied, the rows failing (B) are read off
    the (B') product of the table."""
    inner, outer, ext = _inputs(name)
    good = concatenate(inner, outer, ext)
    k, N, Q = good.k, good.N, ext.Q
    M = max(len(good.Hout1), len(good.Hout2))
    x = int(concat._scaled(ext, good.Hout2, 2)[0, 0])
    rows = _matmul_rows(monkeypatch)
    concatenate(inner, outer, ext)
    assert rows and max(rows) <= max(Q, k * M) < k * M * N
    table = concat.pi_table

    def corrupt(m, pair, ext):
        PI = table(m, pair, ext)
        if m == 1:
            PI[x, 0] = (PI[x, 0] + 1) % pair.field.q
        return PI

    monkeypatch.setattr(concat, "pi_table", corrupt)
    rows.clear()
    with pytest.raises((NotOrthogonal, RankDeficient)):
        concatenate(inner, outer, ext)
    assert rows and max(rows) <= max(Q, k * M)
