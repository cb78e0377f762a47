"""GRS codes: construction, duals, bounded-distance decoding."""

import numpy as np
import pytest

from cssconcat.codes import validate_css
from cssconcat.errors import (
    BadDimension,
    BadField,
    DecodeFailure,
    DimensionConflict,
    DomainError,
    DuplicatePoint,
    ZeroMultiplier,
)
from cssconcat.galois import Extension, Field
from cssconcat.matrix import enumerate_span
from cssconcat.outer_grs import (
    GrsCode,
    default_points,
    grs_code,
    nested_grs_pair,
    self_dual_multiplier_grs,
)

E8 = Extension(Field(2), 3)


def test_construction_errors():
    pts = default_points(E8, 4)
    with pytest.raises(DuplicatePoint):
        GrsCode(E8, [1, 1, 2], [1, 1, 1], 2)
    with pytest.raises(ZeroMultiplier):
        GrsCode(E8, pts, [1, 0, 1, 1], 2)
    with pytest.raises(BadDimension):
        GrsCode(E8, pts, [1] * 4, 0)
    with pytest.raises(BadDimension):
        GrsCode(E8, pts, [1] * 4, 5)


def test_full_space_has_empty_H():
    rs = GrsCode(E8, default_points(E8, 4), [1] * 4, 4)
    assert rs.H.shape == (0, 4)
    assert rs.syndrome([1, 2, 3, 4]).shape == (0,)


def test_rs_7_3_distance_5():
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)
    best = None
    for chunk in enumerate_span(E8.as_field(), rs.G):
        w = (chunk != 0).sum(axis=1)
        w = w[w > 0]
        if w.size:
            m = int(w.min())
            best = m if best is None else min(best, m)
    assert best == 5  # MDS: N - K + 1


def test_parity_check_is_dual():
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)
    fQ = E8.as_field()
    assert not fQ.matmul(rs.G, rs.H.T).any()
    assert rs.dual().K == 4
    # dual of the dual gives back the original multipliers
    dd = rs.dual().dual()
    assert np.array_equal(dd.multipliers, rs.multipliers)


def test_bd_decode_roundtrip():
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)  # t = 2
    rng = np.random.default_rng(7)
    for _ in range(300):
        e = np.zeros(7, dtype=np.int64)
        w = rng.integers(0, 3)
        pos = rng.choice(7, size=w, replace=False)
        e[pos] = rng.integers(1, 8, size=w)
        assert np.array_equal(rs.bd_decode(rs.syndrome(e)), e)


def test_bd_decode_odd_redundancy():
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 4)  # R = 3, t = 1
    rng = np.random.default_rng(8)
    for _ in range(100):
        e = np.zeros(7, dtype=np.int64)
        i = rng.integers(0, 7)
        e[i] = rng.integers(1, 8)
        assert np.array_equal(rs.bd_decode(rs.syndrome(e)), e)


def test_bd_decode_never_silently_wrong():
    """Beyond the radius the decoder fails or returns a consistent small error."""
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)
    rng = np.random.default_rng(9)
    for _ in range(200):
        e = np.zeros(7, dtype=np.int64)
        pos = rng.choice(7, size=4, replace=False)
        e[pos] = rng.integers(1, 8, size=4)
        s = rs.syndrome(e)
        try:
            ehat = rs.bd_decode(s)
        except DecodeFailure:
            continue
        assert np.array_equal(rs.syndrome(ehat), s)
        assert (ehat != 0).sum() <= rs.t


def test_decode_zero_syndrome():
    rs = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)
    assert not rs.bd_decode(np.zeros(4, dtype=np.int64)).any()


def test_nested_pair_css():
    e16 = Extension(Field(2), 4)
    D1, D2 = nested_grs_pair(e16, 15, 11, 11)
    assert validate_css(D1.as_linear_code(), D2.as_linear_code())
    with pytest.raises(DimensionConflict):
        nested_grs_pair(e16, 15, 5, 5)


def test_nested_pair_gf4():
    e4 = Extension(Field(2), 2)
    D1, D2 = nested_grs_pair(e4, 3, 2, 2)
    assert validate_css(D1.as_linear_code(), D2.as_linear_code())


@pytest.mark.parametrize("ext", [Extension(Field(2), 4), Extension(Field(2), 6),
                                 Extension(Field(3), 4), Extension(Field(2, 2), 2)],
                         ids=["GF16", "GF64", "GF81", "GF16/GF4"])
def test_nested_pair_d2_matches_dual_of_rs(ext):
    """D2, built directly with D1's dual multipliers, equals the dual of the
    RS code of dimension N - K2, for K1 + K2 = N and, with its own branch,
    for K2 = N (D2 the full space)."""
    N = min(ext.Q - 1, 20)
    points = default_points(ext, N)
    ones = [1] * N
    for K1, K2 in ((N // 2 + 1, N - N // 2 - 1), (N - 3, 3), (1, N)):
        _, D2 = nested_grs_pair(ext, N, K1, K2)
        want = (GrsCode(ext, points, ones, N) if K2 == N
                else GrsCode(ext, points, ones, N - K2).dual())
        assert D2.K == want.K == K2
        for name in ("G", "H", "points", "multipliers", "dual_multipliers"):
            got, ref = getattr(D2, name), getattr(want, name)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), name


def test_self_dual_multipliers():
    e16 = Extension(Field(2, 2), 2)
    pts = [e16.alpha_pow(j) for j in range(5)]
    D = self_dual_multiplier_grs(e16, pts, 3)
    # dual shares multipliers (and points)
    assert np.array_equal(D.dual_multipliers, D.multipliers)
    Dlin = D.as_linear_code()
    assert Dlin.dual().is_subcode(Dlin)  # K=3 >= N-K=2
    with pytest.raises(BadField):
        self_dual_multiplier_grs(Extension(Field(3), 2), [0, 1, 2], 2)


def test_grs_code_wrapper():
    rs = grs_code(E8, default_points(E8, 5), [1, 2, 3, 4, 5], 2)
    assert rs.N == 5 and rs.K == 2


def _scalar_grs(ext, points, v, K):
    """G, H and dual multipliers straight from their definitions."""
    N = len(points)
    fQ = ext.as_field()
    G = [[fQ.mul(v[j], fQ.pow(points[j], i)) for j in range(N)] for i in range(K)]
    u = []
    for j in range(N):
        prod = 1
        for m in range(N):
            if m != j:
                prod = fQ.mul(prod, fQ.sub(points[j], points[m]))
        u.append(fQ.inv(fQ.mul(v[j], prod)))
    H = [[fQ.mul(u[j], fQ.pow(points[j], i)) for j in range(N)] for i in range(N - K)]
    return (np.array(G, dtype=np.int64).reshape(K, N), np.array(u, dtype=np.int64),
            np.array(H, dtype=np.int64).reshape(N - K, N))


@pytest.mark.parametrize("ext", [Extension(Field(3), 2), Extension(Field(2), 4),
                                 Extension(Field(3), 4)], ids=["GF9", "GF16", "GF81"])
def test_grs_arrays_match_scalar_definitions(ext):
    rng = np.random.default_rng(ext.Q)
    N = min(ext.Q, 20)
    points = [0] + [int(x) for x in rng.choice(np.arange(1, ext.Q), N - 1, replace=False)]
    v = [int(x) for x in rng.integers(1, ext.Q, N)]
    fQ = ext.as_field()
    for K in (1, N // 2, N - 1, N):
        D = GrsCode(ext, points, v, K)
        G, u, H = _scalar_grs(ext, points, v, K)
        assert np.array_equal(D.G, G) and np.array_equal(D.H, H)
        assert np.array_equal(D.dual_multipliers, u)
        assert not fQ.matmul(D.G, D.H.T).any()


def test_dual_multipliers_past_one_difference_chunk():
    # N = 300 points take two chunks of the N x N difference matrix
    ext = Extension(Field(2), 9)
    points = [0] + [ext.alpha_pow(j) for j in range(299)]
    v = [ext.alpha_pow(3 * j + 1) for j in range(300)]
    D = GrsCode(ext, points, v, 150)
    assert np.array_equal(D.dual_multipliers, _scalar_grs(ext, points, v, 1)[1])


def test_self_dual_multipliers_match_scalar_definition():
    for ext in (Extension(Field(2), 4), Extension(Field(2, 2), 3)):
        points = [0] + [ext.alpha_pow(j) for j in range(9)]
        D = self_dual_multiplier_grs(ext, points, 6)
        _, u, _ = _scalar_grs(ext, points, [1] * len(points), 6)
        # v_j is the square root of u_j for unit multipliers
        assert np.array_equal(D.multipliers, [ext.as_field().pow(x, ext.Q // 2) for x in u])
        assert np.array_equal(D.dual_multipliers, D.multipliers)


def test_points_and_multipliers_must_be_field_codes():
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, 8], [1, 1, 1], 2)
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, -1], [1, 1, 1], 2)
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, 3], [1, 9, 1], 2)
