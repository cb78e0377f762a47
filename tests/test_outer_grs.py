"""GRS codes: construction, duals, bounded-distance decoding."""

import math

import numpy as np
import pytest

from cssconcat import galois, outer_grs
from cssconcat.codes import validate_css
from cssconcat.errors import (
    BadDimension,
    BadField,
    DecodeFailure,
    DimensionConflict,
    DomainError,
    DuplicatePoint,
    NotOrthogonal,
    RankDeficient,
    ZeroMultiplier,
)
from cssconcat.galois import Extension, Field
from cssconcat.matrix import enumerate_span
import references
from cssconcat.outer_grs import (
    MESSAGES,
    GrsCode,
    default_points,
    nested_grs_pair,
    self_dual_multiplier_grs,
)

E8 = Extension(Field(2), 3)


# -- reference decoder: extended Euclid on coefficient lists, one row at a time

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _deg(p):
    return len(p) - 1


def _poly_add(f, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out[i] = f.add(x, y)
    return _trim(out)


def _poly_scale(f, a, c):
    return _trim([f.mul(x, c) for x in a])


def _poly_mul(f, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = f.add(out[i + j], f.mul(x, y))
    return _trim(out)


def _poly_divmod(f, a, b):
    a = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = f.inv(b[-1])
    for i in range(len(a) - 1, len(b) - 2, -1):
        if a[i]:
            c = f.mul(a[i], inv_lead)
            q[i - (len(b) - 1)] = c
            for j, bj in enumerate(b):
                a[i - (len(b) - 1) + j] = f.sub(a[i - (len(b) - 1) + j],
                                                f.mul(c, bj))
    return _trim(q), _trim(a[: len(b) - 1])


def _poly_eval(f, p, x):
    acc = 0
    for c in reversed(p):
        acc = f.add(f.mul(acc, x), c)
    return acc


def _poly_deriv(f, p):
    return _trim([f.mul(p[i], i % f.p) for i in range(1, len(p))])


def _euclid_decode(code, syndrome):
    """Bounded-distance decoding of one syndrome by the extended Euclidean
    algorithm on (z^R, S) (Sugiyama et al., 1975), roots by scalar
    evaluation at the inverse points and magnitudes by the derivative
    formula; the same re-verification as the batch decoder.  Returns the
    error vector or raises DecodeFailure."""
    f = code.ext.as_field()
    R = code.N - code.K
    syndrome = np.asarray(syndrome, dtype=np.int64).reshape(-1)
    e = np.zeros(code.N, dtype=np.int64)
    if not syndrome.any():
        return e
    t = R // 2
    if t == 0:
        raise DecodeFailure("nonzero syndrome but zero correction radius")
    S = _trim([int(c) for c in syndrome])
    r_prev = [0] * R + [1]
    r_cur = list(S)
    v_prev: list[int] = []
    v_cur = [1]
    stop = (R + 1) // 2
    while r_cur and _deg(r_cur) >= stop:
        q, rem = _poly_divmod(f, r_prev, r_cur)
        r_prev, r_cur = r_cur, rem
        v_next = _poly_add(f, v_prev, _poly_scale(f, _poly_mul(f, q, v_cur), f.neg(1)))
        v_prev, v_cur = v_cur, v_next
    lam, omega = v_cur, r_cur
    if not lam or lam[0] == 0:
        raise DecodeFailure("degenerate error locator")
    c = f.inv(lam[0])
    lam = _poly_scale(f, lam, c)
    omega = _poly_scale(f, omega, c)
    if _deg(lam) > t:
        raise DecodeFailure("locator degree exceeds radius")
    dlam = _poly_deriv(f, lam)
    nerr = 0
    for j in range(code.N):
        x = int(code.points[j])
        xinv = f.inv(x)
        if _poly_eval(f, lam, xinv) == 0:
            num = f.mul(x, _poly_eval(f, omega, xinv))
            den = _poly_eval(f, dlam, xinv)
            if den == 0:
                raise DecodeFailure("repeated locator root")
            y = f.neg(f.div(num, den))
            e[j] = f.div(y, int(code.dual_multipliers[j]))
            nerr += 1
    if nerr != _deg(lam) or nerr > t:
        raise DecodeFailure("locator roots do not match its degree")
    if not np.array_equal(code.syndrome(e), syndrome):
        raise DecodeFailure("re-encoded syndrome mismatch")
    return e


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
    for N in (0, -3):  # -3 reached np.ones(-3) through nested_grs_pair
        with pytest.raises(BadDimension):
            default_points(E8, N)
        with pytest.raises(BadDimension):
            nested_grs_pair(E8, N, 0, 0)


def test_full_space_has_empty_H():
    rs = GrsCode(E8, default_points(E8, 4), [1] * 4, 4)
    assert rs.H.shape == (0, 4)
    assert rs.syndrome([1, 2, 3, 4]).shape == (0,)
    assert rs.syndrome(np.ones((3, 4), dtype=np.int64)).shape == (3, 0)
    E, ok, reason = rs.bd_decode_batch(rs.syndrome(np.ones((3, 4), dtype=np.int64)))
    assert E.shape == (3, 4) and ok.all() and not E.any()


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


@pytest.mark.parametrize("ext", [Extension(Field(2), 4), Extension(Field(3), 4),
                                 Extension(Field(2, 2), 3)], ids=["GF16", "GF81", "GF4^3"])
def test_css_certificate_matches_elimination(ext, monkeypatch):
    """certify_css_pair gives the verdict and exception class of the
    elimination over GF(Q) (references.outer_css_outcome).  On shared
    points its exact path decides, with no product over GF(Q): nested pairs,
    K = N on either side or both, K1 + K2 = N - 1, D2 with other
    multipliers, and the towers (D, D) and (D', D.dual()) that
    enlarged_concat certifies.  D2 on D1's points permuted, with its
    multipliers, and on one point moved to a code no point uses, goes to
    the products over GF(Q)."""
    N = min(ext.Q - 1, 15)
    pts = np.array(default_points(ext, N))
    rng = np.random.default_rng(ext.Q)
    v = rng.integers(1, ext.Q, size=N)
    D1 = nested_grs_pair(ext, N, 8, 8)[0]
    exact = [nested_grs_pair(ext, N, K1, K2) for K1, K2 in
             ((N - 4, 4), (N - 4, 6), (N // 2, N - N // 2), (N, 1), (1, N), (N, N))]
    exact += [(D1, GrsCode(ext, pts, D1.dual_multipliers, N - 9)),
              (D1, GrsCode(ext, pts, v, N - 6))]
    towers = [GrsCode(ext, pts, v, K) for K in (9, 11)]
    if ext.base.p == 2:
        towers += [self_dual_multiplier_grs(ext, pts, K) for K in (5, 9)]
    for D in towers:
        wider = GrsCode(ext, pts, D.multipliers, D.K + 2)
        exact += [(D, D), (wider, D.dual()), (D, wider.dual())]
    perm = rng.permutation(N)
    moved = pts.copy()
    moved[0] = np.setdiff1d(np.arange(ext.Q), pts)[0]
    products = [(D1, GrsCode(ext, pts[perm], D1.dual_multipliers[perm], K2)) for K2 in (8, N)]
    products += [(D1, GrsCode(ext, moved, D1.dual_multipliers, 8))]
    fQ, over_Q = ext.as_field(), []
    matmul = Field.matmul

    def spy(self, A, B):
        over_Q.append(self is fQ)
        return matmul(self, A, B)

    monkeypatch.setattr(Field, "matmul", spy)
    for pairs, by_products in ((exact, False), (products, True)):
        verdicts = set()
        for D in pairs:
            over_Q.clear()
            try:
                outer_grs.certify_css_pair(*D)
                got = None
            except (NotOrthogonal, RankDeficient) as e:
                got = type(e)
            assert any(over_Q) is by_products, (D, got)
            assert got is references.outer_css_outcome(*D), D
            verdicts.add(got)
        assert verdicts == {None, NotOrthogonal}


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


@pytest.mark.parametrize("k, N, K, Kp", [(4, 15, 9, 11), (6, 63, 36, 38)])
def test_with_dimension_matches_constructor_and_takes_log_diff(monkeypatch, k, N, K, Kp):
    """D' of a tower, ``D.with_dimension(K')``, equals GrsCode(ext, pts,
    D.multipliers, K') in G, H and dual multipliers, shares D's points,
    multipliers and _log_diff, and computes no difference products.  Other
    dimensions are range-checked as in the constructor."""
    ext = Extension(Field(2), k)
    pts = [ext.alpha_pow(j) for j in range(N)]
    D = self_dual_multiplier_grs(ext, pts, K)
    want = GrsCode(ext, pts, D.multipliers, Kp)
    calls = []
    log_diff = outer_grs._log_difference_products

    def spy(*args):
        calls.append(1)
        return log_diff(*args)

    monkeypatch.setattr(outer_grs, "_log_difference_products", spy)
    Dp = D.with_dimension(Kp)
    assert calls == []
    assert (Dp.N, Dp.K) == (N, Kp)
    assert Dp.points is D.points and Dp.multipliers is D.multipliers
    assert Dp._log_diff is D._log_diff
    for name in ("G", "H", "dual_multipliers"):
        got, ref = getattr(Dp, name), getattr(want, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
    for bad in (0, N + 1):
        with pytest.raises(BadDimension):
            D.with_dimension(bad)


def test_points_and_multipliers_must_be_field_codes():
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, 8], [1, 1, 1], 2)
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, -1], [1, 1, 1], 2)
    with pytest.raises(DomainError):
        GrsCode(E8, [1, 2, 3], [1, 9, 1], 2)


_DIFF_CODES = {  # id: (extension, N, K)
    "GF8-R3": (E8, 7, 4),
    "GF16": (Extension(Field(2), 4), 15, 9),
    "GF64": (Extension(Field(2), 6), 40, 26),
    "GF81": (Extension(Field(3), 4), 40, 28),
    "GF243-R13": (Extension(Field(3), 5), 40, 27),
    "GF256": (Extension(Field(2), 8), 40, 24),
    "GF16/GF4": (Extension(Field(2, 2), 2), 15, 8),
}


def _random_grs(ext, N, K, rng):
    """A GRS code on random distinct nonzero points with random nonzero
    multipliers."""
    points = rng.choice(np.arange(1, ext.Q), N, replace=False)
    return GrsCode(ext, points, rng.integers(1, ext.Q, N), K)


def _errors_cycling_weights(code, rows, rng):
    """Rows of error vectors whose weights cycle through 0 .. t + 4."""
    E = np.zeros((rows, code.N), dtype=np.int64)
    top = min(code.t + 4, code.N)
    for i in range(rows):
        w = i % (top + 1)
        pos = rng.choice(code.N, w, replace=False)
        E[i, pos] = rng.integers(1, code.ext.Q, w)
    return E


def _reference_batch(code, S):
    E = np.zeros((len(S), code.N), dtype=np.int64)
    ok = np.zeros(len(S), dtype=bool)
    for i, syn in enumerate(S):
        try:
            E[i] = _euclid_decode(code, syn)
            ok[i] = True
        except DecodeFailure:
            pass
    return E, ok


@pytest.mark.parametrize("name", list(_DIFF_CODES))
def test_bd_decode_batch_matches_euclid_reference(name):
    """On 2048 rows of weights 0 .. t + 4 the lockstep decoder returns the
    Euclid reference's error vectors and failure flags; decoded rows
    re-encode to their syndromes, failed rows are zero, and the one-row call
    fails with the message of the row's reason."""
    ext, N, K = _DIFF_CODES[name]
    rng = np.random.default_rng(N * ext.Q + K)
    code = _random_grs(ext, N, K, rng)
    E_true = _errors_cycling_weights(code, 2048, rng)
    S = code.syndrome(E_true)
    E, ok, reason = code.bd_decode_batch(S)
    E_ref, ok_ref = _reference_batch(code, S)
    assert np.array_equal(ok, ok_ref) and np.array_equal(E, E_ref)
    assert E.dtype == ext.as_field().dtype and reason.dtype == np.int8
    assert np.array_equal(code.syndrome(E[ok]), S[ok]) and not E[~ok].any()
    assert np.array_equal(ok, reason == 0)
    within = (E_true != 0).sum(axis=1) <= code.t
    assert ok[within].all() and np.array_equal(E[within], E_true[within])
    assert (~ok).any()
    for i in range(0, 2048, 7):
        if ok[i]:
            assert np.array_equal(code.bd_decode(S[i]), E[i])
        else:
            with pytest.raises(DecodeFailure, match=f"^{MESSAGES[reason[i]]}$"):
                code.bd_decode(S[i])


@pytest.mark.parametrize("name", list(_DIFF_CODES))
def test_bd_decode_batch_of_zero_and_one_rows(name):
    ext, N, K = _DIFF_CODES[name]
    rng = np.random.default_rng(N + K)
    code = _random_grs(ext, N, K, rng)
    E, ok, reason = code.bd_decode_batch(np.zeros((0, N - K), dtype=np.int64))
    assert E.shape == (0, N) and ok.shape == reason.shape == (0,)
    for w in range(code.t + 5):
        e = _errors_cycling_weights(code, w + 1, rng)[w:]
        S = code.syndrome(e)
        E, ok, reason = code.bd_decode_batch(S)
        E_ref, ok_ref = _reference_batch(code, S)
        assert np.array_equal(ok, ok_ref) and np.array_equal(E, E_ref)


_DENSE_CHIEN_CODES = {  # id: (extension, N, K)
    "GF16": (Extension(Field(2), 4), 15, 9),
    "GF81": (Extension(Field(3), 4), 80, 60),
    "GF1024": (Extension(Field(2), 10), 120, 90),
    "GF2187": (Extension(Field(3), 7), 200, 150),
}


@pytest.mark.parametrize("name", list(_DENSE_CHIEN_CODES))
def test_bd_decode_batch_matches_dense_chien_decoder(name):
    """``(E, ok, reason)``, dtypes included, equal those of the decoder
    with a dense Chien product and a t-step re-encoding
    (``references.bd_decode_batch``) on a batch mixing zero syndromes
    (L = 0), weights 1 and 2, weight t (L = t), weights past t, and
    syndromes whose first nonzero entry is at m >= t (L = m + 1 > t); then
    again with one Forney factor corrupted, so that rows with an error at
    that point fail the re-encoding check."""
    ext, N, K = _DENSE_CHIEN_CODES[name]
    f = ext.as_field()
    rng = np.random.default_rng(ext.Q + N)
    code = _random_grs(ext, N, K, rng)
    t = code.t
    weights = rng.permutation(np.repeat([0, 1, 2, t, t + 1, t + 3], 40))
    E_true = np.zeros((len(weights), N), dtype=np.int64)
    for i, w in enumerate(weights):
        E_true[i, rng.choice(N, w, replace=False)] = rng.integers(1, ext.Q, w)
    late = rng.integers(0, ext.Q, (N - K - t, N - K))
    late[np.tril_indices(N - K - t, t - 1, N - K)] = 0  # row m - t starts at m
    late[np.arange(N - K - t), np.arange(t, N - K)] = rng.integers(1, ext.Q, N - K - t)
    S = np.concatenate([code.syndrome(E_true), late]).astype(f.dtype)
    weights = np.concatenate([weights, np.full(len(late), -1)])
    nonzero = S.any(axis=1)
    _, L = references._berlekamp_massey(f, S[nonzero], t)
    assert not nonzero.all() and {1, 2, t} <= set(L.tolist()) and (L > t).any()
    got = code.bd_decode_batch(S)
    for a, b in zip(got, references.bd_decode_batch(code, S)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    P, c = code._chien
    j = int(np.flatnonzero(got[0][weights == t].any(axis=0))[0])
    c = c.copy()
    c[j] = f.mul(int(c[j]), ext.alpha)
    code._chien = P, c
    E, ok, reason = code.bd_decode_batch(S)
    for a, b in zip((E, ok, reason), references.bd_decode_batch(code, S)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    mismatch = MESSAGES.index("re-encoded syndrome mismatch")
    assert np.array_equal(reason == mismatch, got[1] & (got[0][:, j] != 0))
    assert not E[reason == mismatch].any()


@pytest.mark.parametrize("name", list(_DENSE_CHIEN_CODES))
def test_berlekamp_massey_widths_bounded_by_length(name):
    """_berlekamp_massey, whose steps read the locators only up to the
    largest L of the batch, gives the full-width reference's locators and
    lengths (references._berlekamp_massey) on every row, and
    bd_decode_batch the reference's (E, ok, reason): on batches of rows with
    L = 0, with small L, with L = t, of weight t + 1, with L > t (a first
    nonzero syndrome entry at m >= t), of random syndromes, of each alone,
    all mixed and one row at a time."""
    ext, N, K = _DENSE_CHIEN_CODES[name]
    f = ext.as_field()
    rng = np.random.default_rng(ext.Q * 3 + N)
    code = _random_grs(ext, N, K, rng)
    t = code.t
    groups = []
    for w in (0, 1, 2, t, t + 1):
        E = np.zeros((6, N), dtype=np.int64)
        for row in E:
            row[rng.choice(N, w, replace=False)] = rng.integers(1, ext.Q, w)
        groups.append(code.syndrome(E))
    groups.append(rng.integers(0, ext.Q, (6, N - K)).astype(f.dtype))
    late = rng.integers(0, ext.Q, (6, N - K)).astype(f.dtype)
    for row, m in zip(late, rng.integers(t, N - K, 6)):  # L = m + 1 > t
        row[:m] = 0
        row[m] = rng.integers(1, ext.Q)
    groups.append(late)
    batches = groups + [np.concatenate(groups)]
    batches += [S[None] for S in np.concatenate(groups)[::5]]
    lengths = set()
    for S in batches:
        lam, L = outer_grs._berlekamp_massey(f, S, t)
        lam_ref, L_ref = references._berlekamp_massey(f, S, t)
        assert np.array_equal(lam, lam_ref) and np.array_equal(L, L_ref)
        for a, b in zip(code.bd_decode_batch(S), references.bd_decode_batch(code, S)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        lengths |= set(L.tolist())
    assert {0, 1, 2, t} <= lengths and max(lengths) > t


def _poly_mul(f, a, b):
    """The product of two coefficient lists over the field ``f``."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = f.add(out[i + j], f.mul(x, y))
    return out


def _rootless_quadratic(f):
    """The first 1 + c z + d z^2 with no root in GF(Q)."""
    x = np.arange(f.q)
    for c in range(1, f.q):
        for d in range(1, f.q):
            if f.add(f.add(1, f.mul(c, x)), f.mul(d, f.mul(x, x))).all():
                return [1, c, d]


def _lfsr_syndrome(f, lam, R, rng):
    """A syndrome row of length R generated by the connection polynomial
    ``lam`` of degree L from random first L entries, whose Berlekamp-Massey
    locator is ``lam`` itself (checked, the start redrawn until it is)."""
    L = len(lam) - 1
    for _ in range(50):
        S = [int(x) for x in rng.integers(1, f.q, L)]
        for n in range(L, R):
            acc = 0
            for i in range(1, L + 1):
                acc = f.add(acc, f.mul(lam[i], S[n - i]))
            S.append(f.neg(acc))
        S = np.array([S], dtype=f.dtype)
        got, length = references._berlekamp_massey(f, S, L)
        if length[0] == L and got[0].tolist() == lam:
            return S[0]
    raise AssertionError("no start with the full linear complexity")


@pytest.mark.parametrize("name", list(_DENSE_CHIEN_CODES))
def test_bd_decode_constructed_locators_fail_with_their_reasons(name):
    """Syndromes built as LFSR sequences of chosen locators: a double root
    at a point with a simple root at another fails with the repeated-root
    reason (not the root count, which is off too); a locator with no root
    in GF(Q), or a root at a point times one without, fails with the root
    count; each row alone and all of them in one batch with decodable rows,
    against references.bd_decode_batch."""
    ext, N, K = _DENSE_CHIEN_CODES[name]
    f = ext.as_field()
    rng = np.random.default_rng(ext.Q + 5)
    code = _random_grs(ext, N, K, rng)
    a0, a1 = (int(x) for x in code.points[:2])
    linear = [[1, f.neg(a)] for a in (a0, a1)]
    quad = _rootless_quadratic(f)
    cases = [(_poly_mul(f, _poly_mul(f, linear[0], linear[0]), linear[1]),
              MESSAGES.index("repeated locator root")),
             (quad, MESSAGES.index("locator roots do not match its degree")),
             (_poly_mul(f, linear[0], quad), MESSAGES.index("locator roots do not match its degree"))]
    rows = [_lfsr_syndrome(f, lam, N - K, rng) for lam, _ in cases]
    E = np.zeros((3, N), dtype=np.int64)  # weights 1, 2, 3 <= t
    for i, row in enumerate(E):
        row[rng.choice(N, i + 1, replace=False)] = rng.integers(1, ext.Q, i + 1)
    S = np.concatenate([np.array(rows), code.syndrome(E)])
    want = [why for _, why in cases] + [0] * len(E)
    for pick in [slice(None)] + [slice(i, i + 1) for i in range(len(rows))]:
        got = code.bd_decode_batch(S[pick])
        for a, b in zip(got, references.bd_decode_batch(code, S[pick])):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        assert got[2].tolist() == want[pick]
        assert not got[0][:len(rows)].any()
    assert np.array_equal(code.bd_decode_batch(S)[0][len(rows):], E)


@pytest.mark.parametrize("name", list(_DENSE_CHIEN_CODES))
def test_bd_decode_works_at_the_largest_kept_locator_length(monkeypatch, name):
    """bd_decode_batch sorts nothing, and its Chien product reads the
    locators at w + 1 columns, w the largest locator length L <= t of the
    batch, not t + 1: on rows of weight 1 and 2 (w = 2), and on the same
    rows with one of weight t added (w = t), and with rows past t added,
    which fail before the Chien search and do not widen it.  Each result
    equals references.bd_decode_batch and the rows decoded alone."""
    ext, N, K = _DENSE_CHIEN_CODES[name]
    f = ext.as_field()
    rng = np.random.default_rng(ext.Q + 9)
    code = _random_grs(ext, N, K, rng)
    t = code.t
    E = np.zeros((9, N), dtype=np.int64)
    for row, w in zip(E, [1, 2, 1, 2, 2, 1, t, t + 1, t + 2]):
        row[rng.choice(N, w, replace=False)] = rng.integers(1, ext.Q, w)
    S = code.syndrome(E)
    code.bd_decode_batch(S)  # the Chien table is built
    calls = []
    argsort, matmul = np.argsort, galois.Field._matmul

    def spy_matmul(self, A, B):
        calls.append((A.shape[1], B.shape[0]))
        return matmul(self, A, B)

    for rows, w in ((slice(0, 6), 2), (slice(0, 7), t), (slice(0, 9), t)):
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(np, "argsort", lambda *a, **k: calls.append("sort") or argsort(*a, **k))
            m.setattr(galois.Field, "_matmul", spy_matmul)
            got = code.bd_decode_batch(S[rows])
        assert calls[0] == (w + 1, w + 1) and "sort" not in calls  # the Chien product
        for a, b in zip(got, references.bd_decode_batch(code, S[rows])):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        alone = [code.bd_decode_batch(S[i:i + 1]) for i in range(*rows.indices(len(S)))]
        assert np.array_equal(got[0], np.concatenate([x[0] for x in alone]))
        assert np.array_equal(got[2], np.concatenate([x[2] for x in alone]))


def test_outer_code_inputs_range_checked():
    """Codes outside [0, Q) raise DomainError instead of wrapping or
    indexing past a table."""
    e81 = Extension(Field(3), 4)
    rs81 = GrsCode(e81, default_points(e81, 10), [1] * 10, 6)
    rs8 = GrsCode(E8, default_points(E8, 7), [1] * 7, 3)
    for call in (lambda: rs81.syndrome([-1] + [0] * 9),
                 lambda: rs81.syndrome([81] + [0] * 9),
                 lambda: rs81.bd_decode([0, 0, 0, -1]),
                 lambda: rs8.bd_decode([8, 0, 0, 0]),
                 lambda: rs8.bd_decode_batch([[0, 0, 0, 0], [0, 9, 0, 0]])):
        with pytest.raises(DomainError):
            call()
    with pytest.raises(DomainError):  # wrong length
        rs8.bd_decode([1, 0, 0])
    with pytest.raises(DomainError):  # a zero evaluation point
        GrsCode(E8, [0, 1, 2, 3, 4, 5, 6], [1] * 7, 3).bd_decode([1, 0, 0, 0])


def test_kept_tables_are_checked_once_and_caller_codes_on_every_call(monkeypatch):
    """H^T, G^T and the Chien table are checked to hold codes once, when
    built; later products check only the caller's rows, and a code outside
    [0, Q) passed to syndrome, dual_syndrome or bd_decode_batch still raises
    DomainError, before and after the tables are built."""
    ext = Extension(Field(2), 4)
    D = nested_grs_pair(ext, 15, 11, 11)[0]
    bad = [[ext.Q] + [0] * 14, [-1] + [0] * 14, [0.5] + [0] * 14]
    calls = [D.syndrome, D.dual_syndrome, lambda e: D.bd_decode_batch(np.asarray(e)[:, :4])]
    for built in (False, True):
        for call in calls:
            for e in bad:
                with pytest.raises(DomainError):
                    call([e])
        if not built:
            for call in calls:
                call(np.zeros((1, 15), dtype=np.int64))
    assert {"_Ht", "_Gt", "_chien"} <= set(vars(D))
    checked = []
    check = outer_grs.check_codes

    def spy(X, q, what="entries"):
        checked.append(np.shape(X))
        return check(X, q, what)

    monkeypatch.setattr(outer_grs, "check_codes", spy)
    monkeypatch.setattr(galois, "check_codes", spy)
    e = np.zeros((3, 15), dtype=np.int64)
    e[:, [1, 4]] = 1
    D.syndrome(e)
    D.dual_syndrome(e)
    assert checked == [(3, 15), (3, 15)]  # the caller's rows, not the kept tables
    checked.clear()
    E, ok, _ = D.bd_decode_batch(D.syndrome(e))
    assert ok.all() and np.array_equal(E, e)
    assert checked == [(3, 15)]  # the syndrome call; the decoder checks S with as_codes
    fresh = GrsCode(ext, D.points, D.multipliers, D.K)
    checked.clear()
    fresh.syndrome(e)
    assert sorted(checked) == [(3, 15), (15, 4)]  # e, and H^T once, as it is built


def test_zero_radius_fails_with_its_reason():
    """With N - K = 1 every nonzero syndrome fails, whatever the points."""
    for points in (default_points(E8, 5), [0, 1, 2, 3, 4]):
        rs = GrsCode(E8, points, [1] * 5, 4)
        E, ok, reason = rs.bd_decode_batch([[0], [3]])
        assert ok.tolist() == [True, False] and not E.any()
        with pytest.raises(DecodeFailure, match=f"^{MESSAGES[reason[1]]}$"):
            rs.bd_decode([3])
        assert MESSAGES[reason[1]] == "nonzero syndrome but zero correction radius"


# -- the array-built constructors against the per-point reference -------------

def _per_point_grs(ext, points, multipliers, K):
    """``(points, multipliers, G, H, dual_multipliers)`` by the per-point
    constructor: Python-level validation of every code, then the arrays."""
    points = [int(x) for x in points]
    multipliers = [int(x) for x in multipliers]
    N = len(points)
    if len(set(points)) != N:
        raise DuplicatePoint("evaluation points must be distinct")
    if len(multipliers) != N:
        raise DomainError("need one multiplier per point")
    if any(not 0 <= x < ext.Q for x in points + multipliers):
        raise DomainError("points and multipliers must be codes of the field")
    if any(v == 0 for v in multipliers):
        raise ZeroMultiplier("column multipliers must be nonzero")
    if not 1 <= K <= N:
        raise BadDimension(f"dimension K={K} out of range [1, {N}]")
    a = np.array(points, dtype=np.int64)
    v = np.array(multipliers, dtype=np.int64)
    log_v = ext.log[v]
    log_u = (-log_v - outer_grs._log_difference_products(ext, a)) % (ext.Q - 1)
    return (a, v, references.scaled_powers(ext, log_v, a, K),
            references.scaled_powers(ext, log_u, a, N - K), ext.exp[log_u])


def _per_point_nested(ext, N, K1, K2):
    points = [ext.alpha_pow(j) for j in range(N)]
    D1 = _per_point_grs(ext, points, [1] * N, K1)
    return D1, _per_point_grs(ext, points, [1] * N if K2 == N else D1[4], K2)


_FIELDS = {"GF16": Extension(Field(2), 4), "GF64": Extension(Field(2), 6),
           "GF81": Extension(Field(3), 4), "GF3^5": Extension(Field(3), 5),
           "GF256": Extension(Field(2), 8)}
_ARRAYS = ("points", "multipliers", "G", "H", "dual_multipliers")


def _same_arrays(code, ref):
    """The code's arrays equal the reference's: G and H, built on request,
    in the dtype of GF(Q), the vectors in the reference's dtype."""
    for name, want in zip(_ARRAYS, ref):
        got = getattr(code, name)
        dtype = code.ext.as_field().dtype if name in ("G", "H") else want.dtype
        assert got.dtype == dtype and np.array_equal(got, want), name


@pytest.mark.parametrize("name", list(_FIELDS))
def test_array_built_grs_matches_per_point_reference(name):
    """default_points, nested_grs_pair on N = Q - 1 points (255 on GF(256)),
    the duals of both codes and, in characteristic 2, the self-dual
    multiplier code: byte-identical to the per-point construction."""
    ext = _FIELDS[name]
    N = ext.Q - 1
    points = default_points(ext, N)
    assert type(points) is list and points == [ext.alpha_pow(j) for j in range(N)]
    for K1, K2 in ((N - N // 4, N - N // 4), (N // 2 + 1, N - N // 2 - 1), (2, N)):
        pair = nested_grs_pair(ext, N, K1, K2)
        for code, ref in zip(pair, _per_point_nested(ext, N, K1, K2)):
            _same_arrays(code, ref)
            if code.K < N:
                a, v, _, _, u = ref
                _same_arrays(code.dual(), _per_point_grs(ext, a, u, N - code.K))
    if ext.base.p == 2:
        pts = [0] + points[:40]
        K = len(pts) // 2 + 1
        u = _per_point_grs(ext, pts, [1] * len(pts), 1)[4]
        root = [ext.as_field().pow(int(x), ext.Q // 2) for x in u]
        _same_arrays(self_dual_multiplier_grs(ext, pts, K), _per_point_grs(ext, pts, root, K))


def test_grs_rejects_non_integer_points_and_multipliers():
    """Points and multipliers follow the integer rule of matrix.check_codes:
    1.5, 2.7, 3.2 once built a code on the points 1, 2, 3, and a multiplier
    1.9 became 1; they, inf and NaN raise DomainError.  Integer-valued
    floats are read as their integers."""
    ext = _FIELDS["GF16"]
    for points, v in (([1.5, 2.7, 3.2], [1, 1, 1]), ([1, 2, 3], [1, 1.9, 1]),
                      ([1, 2, np.inf], [1, 1, 1]), ([1, 2, 3], [1, np.nan, 1])):
        for wrap in (list, np.array):
            with pytest.raises(DomainError, match="must be integers"):
                GrsCode(ext, wrap(points), wrap(v), 2)
    with pytest.raises(DomainError, match="must be integers"):
        self_dual_multiplier_grs(ext, [1.5, 2.7, 3.2], 2)
    D = GrsCode(ext, np.array([1.0, 2.0, 3.0]), [1.0, 2, 1], 2)
    assert D.points.tolist() == [1, 2, 3] and D.multipliers.tolist() == [1, 2, 1]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "ndarray"])
def test_array_built_grs_keeps_exception_classes(as_array):
    """Repeated points, codes outside [0, Q) (negative or too large), a zero
    multiplier, a multiplier count that does not match and both a repeated
    and an out-of-range point: the same class as the per-point reference,
    for list and ndarray input."""
    ext = _FIELDS["GF16"]
    wrap = np.array if as_array else list
    cases = [([1, 2, 2, 3], [1, 1, 1, 1], DuplicatePoint),
             ([1, 2, -1, 3], [1, 1, 1, 1], DomainError),
             ([1, 2, 16, 3], [1, 1, 1, 1], DomainError),
             ([1, 2, 5, 3], [1, 1, -3, 1], DomainError),
             ([1, 2, 5, 3], [1, 1, 16, 1], DomainError),
             ([1, 2, 5, 3], [1, 1, 1], DomainError),
             ([1, 2, 5, 3], [1, 0, 1, 1], ZeroMultiplier),
             ([1, 20, 20, 3], [1, 1, 1, 1], DuplicatePoint),
             ([1, -2, 5, 1], [1, 1, 1, 1], DuplicatePoint)]
    for points, v, exc in cases:
        for build in (GrsCode, _per_point_grs):
            with pytest.raises(exc):
                build(ext, wrap(points), wrap(v), 2)
        if exc is DuplicatePoint or points[2] in (-1, 16):
            with pytest.raises(exc):
                self_dual_multiplier_grs(ext, wrap(points), 2)


# -- G and H built on request ---------------------------------------------------

_ON_REQUEST = {"GF16": Extension(Field(2), 4), "GF81": Extension(Field(3), 4),
               "GF3^5": Extension(Field(3), 5), "GF1024": Extension(Field(2), 10)}


@pytest.mark.parametrize("step", [None, 1, 2, 5], ids=["chunk_rows", "1", "2", "5"])
@pytest.mark.parametrize("name", list(_ON_REQUEST))
def test_grs_arrays_built_on_request(monkeypatch, name, step):
    """G, H, dual().G and as_linear_code().G equal the one-piece int64
    reference (references.scaled_powers) and are in the dtype of GF(Q), on
    random points with 0 among them, for K = 1, a middle K and K = N; row
    slices of 1, 2 and 5 rows give the same arrays."""
    if step is not None:
        monkeypatch.setattr(outer_grs, "chunk_rows", lambda width, itemsize=8: step)
    ext = _ON_REQUEST[name]
    rng = np.random.default_rng(ext.Q)
    N = min(ext.Q, 40)
    points = np.concatenate([[0], rng.choice(np.arange(1, ext.Q), N - 1, replace=False)])
    v = rng.integers(1, ext.Q, N)
    log_v = ext.log[v]
    log_u = (-log_v - outer_grs._log_difference_products(ext, points)) % (ext.Q - 1)
    for K in (1, N // 2, N):
        D = GrsCode(ext, points, v, K)
        G = references.scaled_powers(ext, log_v, points, K)
        H = references.scaled_powers(ext, log_u, points, N - K)
        pairs = [(D.G, G), (D.H, H), (D.as_linear_code().G, G)]
        if K < N:
            pairs.append((D.dual().G, H))
        for got, want in pairs:
            assert got.dtype == ext.as_field().dtype and np.array_equal(got, want), K
        assert np.array_equal(D.dual_multipliers, ext.exp[log_u])


def test_grs_codes_hold_no_matrix():
    """Codes from nested_grs_pair and self_dual_multiplier_grs, and their
    duals, keep no 2-D array, also after G, H and as_linear_code() are read:
    each read builds a new array."""
    ext = Extension(Field(2), 6)
    codes = [*nested_grs_pair(ext, 63, 47, 47), *nested_grs_pair(ext, 63, 20, 63),
             self_dual_multiplier_grs(ext, default_points(ext, 40), 25)]
    codes += [code.dual() for code in codes if code.K < code.N]
    for code in codes:
        assert code.G is not code.G and code.H is not code.H
        code.as_linear_code()
        assert not [key for key, value in vars(code).items()
                    if isinstance(value, np.ndarray) and value.ndim >= 2], code


# -- products by the code's own arrays ------------------------------------------

@pytest.mark.parametrize("name", ["GF16", "GF81", "GF1024"])
def test_syndromes_equal_dense_products(name):
    """syndrome and dual_syndrome equal the products by a fresh H^T and G^T,
    dtypes included, on 0, 1 and 7 rows and on one vector, for K = 1, a
    middle K and K = N (an empty H); each builds its kept transpose on its
    first call, the other not."""
    ext = _ON_REQUEST[name]
    fQ = ext.as_field()
    rng = np.random.default_rng(ext.Q + 1)
    N = min(ext.Q - 1, 40)
    points = rng.choice(np.arange(1, ext.Q), N, replace=False)
    v = rng.integers(1, ext.Q, N)
    for K in (1, N // 2, N):
        D = GrsCode(ext, points, v, K)
        x = rng.integers(0, ext.Q, N)
        assert np.array_equal(D.syndrome(x), fQ.matmul(x, D.H.T))
        assert "_Ht" in vars(D) and "_Gt" not in vars(D)
        Ht = D._Ht
        assert np.array_equal(D.dual_syndrome(x), fQ.matmul(x, D.G.T))
        for rows in (0, 1, 7):
            X = rng.integers(0, ext.Q, (rows, N))
            for got, want in ((D.syndrome(X), fQ.matmul(X, D.H.T)),
                              (D.dual_syndrome(X), fQ.matmul(X, D.G.T))):
                assert got.dtype == want.dtype == fQ.dtype, K
                assert got.shape == want.shape and np.array_equal(got, want), (K, rows)
        assert D._Ht is Ht and D._Ht.shape == (N, N - K)
        with pytest.raises(DomainError):
            D.dual_syndrome([ext.Q] + [0] * (N - 1))


def test_decoding_builds_no_generator():
    """bd_decode_batch builds H^T and the Chien tables, and no G^T."""
    ext = Extension(Field(2), 6)
    D1, D2 = nested_grs_pair(ext, 63, 47, 47)
    e = np.zeros(63, dtype=np.int64)
    e[[3, 40]] = [5, 7]
    assert np.array_equal(D2.bd_decode(D2.syndrome(e)), e)
    assert {"_Ht", "_chien"} <= set(vars(D2)) and "_Gt" not in vars(D2)
    assert not {"_Ht", "_Gt", "_chien"} & set(vars(D1))


_MISCORRECTION_CODES = {  # id: (extension, N, K), t = 2 and 3
    "RS63_59": (Extension(Field(2), 6), 63, 59),
    "RS63_57": (Extension(Field(2), 6), 63, 57),
    "RS255_251": (Extension(Field(2), 8), 255, 251),
    "RS255_249": (Extension(Field(2), 8), 255, 249),
}


@pytest.mark.parametrize("excess", [1, 2, 3])
@pytest.mark.parametrize("name", list(_MISCORRECTION_CODES))
def test_sampled_miscorrections_meet_the_mds_count(name, excess):
    """Rows of weight w = t + 1 .. t + 3 with uniform positions and uniform
    nonzero symbols, past the radius: each row either fails with a reason
    and a zero error row, or is miscorrected, decoded to an error of weight
    <= t with the row's syndrome, so that it differs from the true error by
    a nonzero codeword.  The miscorrected share meets the McEliece-Swanson
    count of the MDS code, references.mds_miscorrections (0.13-0.49 here),
    within 3 sigma, and every row equals references.bd_decode_batch."""
    ext, N, K = _MISCORRECTION_CODES[name]
    code = nested_grs_pair(ext, N, K, K)[0]
    t, rows = code.t, 4000
    w = t + excess
    rng = np.random.default_rng(N * 10 + K + excess)
    E = np.zeros((rows, N), dtype=np.int64)
    np.put_along_axis(E, np.argsort(rng.random((rows, N)), axis=1)[:, :w],
                      rng.integers(1, ext.Q, size=(rows, w)), axis=1)
    S = code.syndrome(E)
    got = code.bd_decode_batch(S)
    for a, b in zip(got, references.bd_decode_batch(code, S)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    X, ok, reason = got
    assert not X[~ok].any() and (reason[~ok] != 0).all()
    assert (np.count_nonzero(X[ok], axis=1) <= t).all()
    assert np.array_equal(code.syndrome(X[ok]), S[ok])
    miscorrected = int((ok & (X != E).any(axis=1)).sum())
    assert miscorrected == ok.sum()
    p = references.mds_miscorrections(N, K, ext.Q, w) / (math.comb(N, w) * (ext.Q - 1) ** w)
    assert abs(miscorrected - rows * p) <= 3 * math.sqrt(rows * p * (1 - p))
