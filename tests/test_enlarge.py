"""Enlargement, fixed-point-free matrices, distance-2 generator family."""

import re

import numpy as np
import pytest

from cssconcat import matrix
from cssconcat.codes import CssPair, LinearCode, css_min_distance, min_weight_excluding
from cssconcat.enlarge import (
    EnlargedCode,
    _verify_fixed_point_free,
    enlargement_distance_floor,
    distance2_inner_generator,
    enlarged_concat,
    fixed_point_free_matrix,
    steane_enlarge,
    symplectic_dual,
    symplectic_min_distance,
)
from cssconcat.errors import (
    BadField,
    BadLength,
    ConditionViolation,
    Degenerate,
    DomainError,
    FieldMismatch,
    PremiseViolation,
    RankDeficient,
    TooLarge,
)
from cssconcat.galois import Extension, Field, _shift_matrix
from cssconcat.matrix import MatGF, enumerate_span
from cssconcat.outer_grs import GrsCode, self_dual_multiplier_grs
import references

F2 = Field(2)
F4 = Field(2, 2)

HAMMING_H = np.array([[1, 0, 1, 0, 1, 0, 1],
                      [0, 1, 1, 0, 0, 1, 1],
                      [0, 0, 0, 1, 1, 1, 1]])


def test_fpf_golden_2x2():
    M = fixed_point_free_matrix(F2, 2)
    assert M.tolist() == [[0, 1], [1, 1]]
    assert _verify_fixed_point_free(F2, M)


def test_fpf_various_sizes():
    for f, m in ((F2, 2), (F2, 3), (F2, 5), (F4, 2), (F4, 3),
                 (Field(3), 2), (Field(3), 4), (Field(5), 3)):
        M = fixed_point_free_matrix(f, m)
        assert M.shape == (m, m)
        assert _verify_fixed_point_free(f, M)


def test_fpf_m1_rejected():
    with pytest.raises(DomainError):
        fixed_point_free_matrix(F2, 1)


def _hamming_pair():
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    Cp = LinearCode.from_parity_check(F2, HAMMING_H[:1])
    return C, Cp


def test_steane_enlarge_layout():
    C, Cp = _hamming_pair()
    enl = steane_enlarge(C, Cp)
    assert (enl.length, enl.logical_dims) == (7, 3)
    K, n = C.dim, C.n
    assert enl.G.shape == (2 * K + (Cp.dim - K), 2 * n)
    assert np.array_equal(enl.G[:K, :n], C.G)
    assert not enl.G[:K, n:].any()
    assert np.array_equal(enl.G[K:2 * K, n:], C.G)


def test_steane_enlarge_premises():
    C, Cp = _hamming_pair()
    with pytest.raises(PremiseViolation):
        steane_enlarge(C, C)  # no dimension gap
    even = LinearCode.from_parity_check(F2, np.ones((1, 4), dtype=np.int64))
    with pytest.raises(PremiseViolation):
        steane_enlarge(even, LinearCode.full_space(F2, 4))  # gap 1
    with pytest.raises(PremiseViolation):
        steane_enlarge(LinearCode.full_space(F2, 3), LinearCode.full_space(F2, 3))


def test_enlarged_contains_symplectic_dual():
    C, Cp = _hamming_pair()
    enl = steane_enlarge(C, Cp)
    H = symplectic_dual(F2, enl.G)
    from cssconcat.matrix import MatGF
    G = MatGF(F2, enl.G)
    assert G.span_contains_rows(H).all()


def test_symplectic_distance_css_correspondence():
    C = LinearCode.from_parity_check(F2, HAMMING_H)
    pair = CssPair.build(C, C)
    z = np.zeros_like(C.G)
    G = np.block([[C.G, z], [z, C.G]])
    assert symplectic_min_distance(F2, G) == css_min_distance(pair) == 3


def test_symplectic_distance_full_space():
    G = np.eye(8, dtype=np.int64)
    assert symplectic_min_distance(F2, G) == 1


def test_symplectic_distance_cap():
    """q^rank above the cap raises TooLarge; equal to it is enumerated.  The
    rank counts, not the rows: a dependent row adds nothing."""
    with pytest.raises(TooLarge):
        symplectic_min_distance(F2, np.eye(40, dtype=np.int64), cap=1 << 10)
    for f in (F2, Field(3), Field(2, 2)):
        # (e1, 0), (0, e1), (e2, 0) and their dependent sum (e1, e1): rank 3;
        # (e1, 0) pairs with (0, e1), so it lies outside the dual: weight 1
        G = np.array([[1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0],
                      [1, 0, 0, 1, 0, 0]])
        assert symplectic_min_distance(f, G, cap=f.q ** 3) == 1
        with pytest.raises(TooLarge):
            symplectic_min_distance(f, G, cap=f.q ** 3 - 1)


def test_symplectic_odd_width_rejected():
    """A symplectic generator holds (u, v) pairs; an odd width was split at
    cols // 2 (the dual of [[1,0,1],[0,1,1]] came out [[1,1,1]] and its
    distance 2)."""
    G = [[1, 0, 1], [0, 1, 1]]
    for call in (symplectic_dual, symplectic_min_distance):
        with pytest.raises(DomainError, match="even number of columns"):
            call(F2, G)
    with pytest.raises(DomainError):
        symplectic_min_distance(F2, np.eye(41, dtype=np.int64), cap=1 << 10)


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
def test_symplectic_distance_matches_direct_reference(q):
    """Random generators of 1-4 rows and width 2n, n in 1..4, over GF(2),
    GF(3) and GF(4), rank-deficient ones included: the shared enumerator
    against the least pair weight over the listed span outside its
    symplectic dual, read off the form with each row of G; a span inside
    its dual raises Degenerate."""
    f = Field(*q)
    rng = np.random.default_rng(31 + f.q)
    degenerate = 0
    for _ in range(40):
        n = int(rng.integers(1, 5))
        G = rng.integers(0, f.q, size=(int(rng.integers(1, 5)), 2 * n))
        want = references.symplectic_min_distance(f, G)
        if want is None:
            degenerate += 1
            with pytest.raises(Degenerate):
                symplectic_min_distance(f, G)
        else:
            assert symplectic_min_distance(f, G) == want
    assert 0 < degenerate < 40


def _floor_check(C, Cp, cap=1 << 22):
    enl = steane_enlarge(C, Cp)
    d = min_weight_excluding(C, Cp.dual(), cap)
    dp = min_weight_excluding(Cp, Cp.dual(), cap)
    floor = enlargement_distance_floor(d, dp, C.field.q)
    brute = symplectic_min_distance(C.field, enl.G, cap=cap)
    assert brute >= floor, (brute, floor)
    return brute, floor


def test_enlargement_distance_floor_instances():
    # 1: Hamming [7,4] inside a [7,6]
    C, Cp = _hamming_pair()
    _floor_check(C, Cp)
    # 2: [8,4] extended Hamming (self-dual) inside [8,7] even-weight
    He = np.array([[1, 1, 1, 1, 1, 1, 1, 1],
                   [0, 0, 0, 0, 1, 1, 1, 1],
                   [0, 0, 1, 1, 0, 0, 1, 1],
                   [0, 1, 0, 1, 0, 1, 0, 1]])
    C8 = LinearCode.from_parity_check(F2, He)
    Cp8 = LinearCode.from_parity_check(F2, He[:1])
    _floor_check(C8, Cp8)
    # 3: self-dual [4,2] inside the full space
    C4 = LinearCode(F2, np.array([[1, 1, 0, 0], [0, 0, 1, 1]]))
    _floor_check(C4, LinearCode.full_space(F2, 4))
    # 4: GF(4) self-dual [4,2] inside the full space
    C4q = LinearCode(F4, np.array([[1, 0, 1, 0], [0, 1, 0, 1]]))
    _floor_check(C4q, LinearCode.full_space(F4, 4))
    # 5: GF(4) self-dual [6,3] (three repetition blocks) inside the full space
    C6 = LinearCode(F4, np.array([[1, 1, 0, 0, 0, 0],
                                  [0, 0, 1, 1, 0, 0],
                                  [0, 0, 0, 0, 1, 1]]))
    _floor_check(C6, LinearCode.full_space(F4, 6))


def test_distance2_generator_golden():
    G3, b, gs = distance2_inner_generator(F4, 3)
    z, z2 = 2, 3
    assert G3.a.tolist() == [[z, z2, 1], [z2, z, 0]]
    G4, _, _ = distance2_inner_generator(F4, 4)
    assert G4.a.tolist() == [[z, z2, z, z2], [z2, z, 0, 0], [1, z, z, 0]]


def test_distance2_generator_properties():
    for f in (F4, Field(2, 4)):
        for n in range(3, 11 if f is F4 else 8):
            G, b, gs = distance2_inner_generator(f, n)
            assert G.rows == n - 1 and G.cols == n
            assert (b != 0).all()
            assert f.dot(b, b) == 0
            gsm = np.array(gs)
            assert np.array_equal(f.matmul(gsm, gsm.T),
                                  np.eye(n - 2, dtype=np.int64))
            assert not f.matmul(gsm, b[:, None]).any()
            # span is an [n, n-1] code whose dual is spanned by b
            C = LinearCode(f, G.a)
            assert C.dim == n - 1
            assert C.Hmat.same_row_space(
                __import__("cssconcat.matrix", fromlist=["MatGF"]).MatGF(f, b[None, :]))


def test_distance2_generator_errors():
    with pytest.raises(BadField):
        distance2_inner_generator(F2, 4)
    with pytest.raises(BadField):
        distance2_inner_generator(Field(2, 3), 4)
    with pytest.raises(BadLength):
        distance2_inner_generator(F4, 2)


def _tower_gf4(N, K, Kp):
    e16 = Extension(F4, 2)
    pts = [e16.alpha_pow(j) for j in range(N)]
    D = self_dual_multiplier_grs(e16, pts, K)
    Dp = GrsCode(e16, pts, D.multipliers, Kp)
    return e16, D, Dp


def test_enlarged_concat_builds():
    G4m, b4, gs4 = distance2_inner_generator(F4, 4)
    C1 = LinearCode(F4, G4m.a)
    e16, D, Dp = _tower_gf4(5, 3, 5)
    enl = enlarged_concat(C1, gs4, e16, D, Dp)
    assert isinstance(enl, EnlargedCode)
    assert (enl.length, enl.logical_dims) == (20, 6)
    assert enl.report["guaranteed"] >= 1


def test_enlarged_concat_conditions():
    G4m, b4, gs4 = distance2_inner_generator(F4, 4)
    C1 = LinearCode(F4, G4m.a)
    e16, D, Dp = _tower_gf4(5, 3, 5)
    # (A): a code not containing its dual
    bad = LinearCode(F4, np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
    with pytest.raises(ConditionViolation, match=r"\(A\)"):
        enlarged_concat(bad, gs4[:2], e16, D, Dp)
    # (B): non-orthonormal generators
    with pytest.raises(ConditionViolation, match=r"\(B\)"):
        enlarged_concat(C1, np.array(gs4) * 0 + 1, e16, D, Dp)
    # D = Dprime leaves no enlargement gap
    with pytest.raises(ConditionViolation):
        enlarged_concat(C1, gs4, e16, D, D)


def test_enlarged_concat_rejects_extension_without_self_dual_basis():
    """Over GF(9) = GF(3)^2, odd q and even k, no self-dual basis exists, so
    the full space GF(3)^2 with g1 = I, which meets (A) and (B), fails (C);
    (C) is checked before the outer tower."""
    f3, e9 = Field(3), Extension(Field(3), 2)
    pts = [e9.alpha_pow(j) for j in range(8)]
    D, Dp = GrsCode(e9, pts, [1] * 8, 4), GrsCode(e9, pts, [1] * 8, 6)
    with pytest.raises(ConditionViolation, match=re.escape("(C) extension has no self-dual basis")):
        enlarged_concat(LinearCode.full_space(f3, 2), np.eye(2, dtype=np.int64), e9, D, Dp)


def test_enlarged_concat_outer_tower_rejections():
    """Each outer-tower condition is rejected with its own message: Dprime
    with other multipliers or on other points; D with K < N - K, which
    does not contain its dual; and Dprime of dimension K or less."""
    G4m, _, gs4 = distance2_inner_generator(F4, 4)
    C1 = LinearCode(F4, G4m.a)
    e16, D, _ = _tower_gf4(5, 3, 5)
    pts, v = D.points, D.multipliers
    moved = pts.copy()
    moved[0] = np.setdiff1d(np.arange(e16.Q), pts)[0]
    small = self_dual_multiplier_grs(e16, pts, 2)
    for (D_, Dp), why in (
            ((D, GrsCode(e16, pts, e16.as_field().mul(v, e16.alpha), 5)),
             "outer tower must share points and multipliers"),
            ((D, GrsCode(e16, moved, v, 5)), "outer tower must share points and multipliers"),
            ((small, GrsCode(e16, pts, small.multipliers, 5)), "outer code does not contain its dual"),
            ((D, GrsCode(e16, pts, v, 3)), "outer codes do not nest"),
            ((D, GrsCode(e16, pts, v, 2)), "outer codes do not nest")):
        with pytest.raises(ConditionViolation, match=re.escape(f"(B) {why}")):
            enlarged_concat(C1, gs4, e16, D_, Dp)


def test_enlarged_concat_outer_codes_over_another_extension():
    """A tower over GF(2)^4 passed with ext = GF(4)^2, both GF(16) with
    other codes, raises FieldMismatch before the tower checks, as
    concatenate does; it once cleared them and failed in steane_enlarge
    with a PremiseViolation naming another condition."""
    G4m, _, gs4 = distance2_inner_generator(F4, 4)
    C1 = LinearCode(F4, G4m.a)
    e16, D, Dp = _tower_gf4(5, 3, 5)
    other = Extension(F2, 4)
    pts = [other.alpha_pow(j) for j in range(5)]
    D2 = self_dual_multiplier_grs(other, pts, 3)
    Dp2 = GrsCode(other, pts, D2.multipliers, 5)
    for D_, Dp_ in ((D2, Dp2), (D, Dp2), (D2, Dp)):
        with pytest.raises(FieldMismatch, match="extension field"):
            enlarged_concat(C1, gs4, e16, D_, Dp_)


def test_enlarged_concat_tiny_brute():
    """[[4,2]] from a trivial length-1 inner code; floor checked by brute force."""
    C1 = LinearCode.full_space(F4, 1)
    g1 = np.array([[1]])
    e4 = Extension(F4, 1)
    pts = [e4.alpha_pow(j) for j in range(3)] + [0]
    D = self_dual_multiplier_grs(e4, pts, 2)
    Dp = GrsCode(e4, pts, D.multipliers, 4)
    enl = enlarged_concat(C1, g1, e4, D, Dp)
    assert (enl.length, enl.logical_dims) == (4, 2)
    brute = symplectic_min_distance(F4, enl.G)
    assert brute >= enl.report["guaranteed"]


# -- differential tests against the direct implementations ---------------------

def _completion_by_rows(C, Cprime):
    """Reference: the first rows of Cprime.G raising the rank over C.G, one
    elimination per row."""
    f, U = C.field, C.G
    extra = Cprime.dim - C.dim
    rank = MatGF(f, U).rank
    V_rows = []
    for row in Cprime.G:
        if len(V_rows) == extra:
            break
        trial = MatGF(f, np.concatenate([U, np.array(V_rows + [row])], axis=0))
        if trial.rank > rank + len(V_rows):
            V_rows.append(row)
    return np.array(V_rows, dtype=np.int64)


def _fixed_point_free_by_enumeration(field, M):
    """Reference: no nonzero x of all q^m has xM a multiple of x."""
    for chunk in enumerate_span(field, np.eye(M.shape[0], dtype=np.int64)):
        Y = field.matmul(chunk, M)
        for x, y in zip(chunk, Y):
            if not x.any():
                continue
            i = int(np.nonzero(x)[0][0])
            lam = field.div(int(y[i]), int(x[i]))
            if np.array_equal(y, field.mul(np.full_like(x, lam), x)):
                return False
    return True


def _dual_containing_pairs():
    F3 = Field(3)
    return [
        _hamming_pair(),
        (LinearCode(F3, np.array([[1, 1, 1, 0], [0, 1, 2, 1]])), LinearCode.full_space(F3, 4)),
        (LinearCode(F4, np.array([[1, 0, 1, 0], [0, 1, 0, 1]])), LinearCode.full_space(F4, 4)),
        (LinearCode(F4, np.array([[1, 1, 0, 0, 0, 0],
                                  [0, 0, 1, 1, 0, 0],
                                  [0, 0, 0, 0, 1, 1]])), LinearCode.full_space(F4, 6)),
    ]


def test_completion_matches_rowwise_rank():
    rng = np.random.default_rng(7)
    for C, Cp in _dual_containing_pairs():
        f = C.field
        want = _completion_by_rows(C, Cp)
        bases = [Cp, LinearCode(f, np.concatenate([C.G, want]))]  # leading rows in C
        while len(bases) < 5:
            A = rng.integers(0, f.q, size=(Cp.dim, Cp.dim))
            if MatGF(f, A).rank == Cp.dim:
                bases.append(LinearCode(f, f.matmul(A, Cp.G)))
        for Cprime in bases:
            got = steane_enlarge(C, Cprime).V
            assert np.array_equal(got, _completion_by_rows(C, Cprime))
        assert np.array_equal(steane_enlarge(C, bases[1]).V, want)


def test_fpf_certificate_matches_enumeration():
    F3 = Field(3)
    fpf = [(f, fixed_point_free_matrix(f, m))
           for f, m in ((F2, 2), (F2, 3), (F2, 5), (F4, 2), (F4, 3), (F3, 2),
                        (F3, 4), (Field(5), 3), (Field(7), 3), (Field(2, 4), 2))]
    fixed = [
        (F2, np.eye(3, dtype=np.int64)),
        (F4, np.eye(2, dtype=np.int64) * 3),
        (F2, np.array([[1, 1], [1, 1]])),                 # singular: lambda = 0
        (F3, np.array([[0, 1, 2], [1, 0, 1], [1, 1, 0]])),  # singular
        (F3, np.diag([1, 2, 2])),
        (F2, _shift_matrix(np.array([[1, 0]]))),          # x^2 + 1 = (x + 1)^2
        (F4, _shift_matrix(np.array([[2, 3, 0]]))),       # x^3 + 3x + 2 has the root 1
        (F3, _shift_matrix(np.array([[1, 0, 0]]))),       # x^3 - 1 has the root 1
    ]
    for f, M in fpf + fixed:
        want = _fixed_point_free_by_enumeration(f, M)
        assert _verify_fixed_point_free(f, M) is want
    assert all(_verify_fixed_point_free(f, M) for f, M in fpf)
    assert not any(_verify_fixed_point_free(f, M) for f, M in fixed)


def _distance2_inputs(n, N, K, Kp):
    G, _, gs = distance2_inner_generator(F4, n)
    C1 = LinearCode(F4, G.a)
    ext = Extension(F4, n - 2)
    pts = [ext.alpha_pow(j) for j in range(N)]
    D = self_dual_multiplier_grs(ext, pts, K)
    Dp = GrsCode(ext, pts, D.multipliers, Kp)
    return C1, np.array(gs), ext, D, Dp


def _distance2_tower(n, N, K, Kp):
    inputs = _distance2_inputs(n, N, K, Kp)
    return *inputs, enlarged_concat(*inputs)


def _cprime(enl):
    """C' = C + span(V), which the enlarged code keeps as its factors."""
    return LinearCode(enl.field, np.concatenate([enl.C.G, enl.V]))


@pytest.mark.parametrize("tower", [(4, 5, 3, 5), (4, 15, 9, 11)])
def test_expansion_matches_expand_rows(tower):
    """C.G is the expansion of D.G, and V put after its first k K rows
    gives the expansion of Dprime.G: V is the k (K' - K) rows of Dprime.G
    past D.G, expanded."""
    C1, g1, ext, D, Dp, enl = _distance2_tower(*tower)
    assert np.array_equal(enl.C.G, references.expand_rows(C1, g1, ext, D.G))
    lo = ext.k * D.K
    assert np.array_equal(np.concatenate([enl.C.G[:lo], enl.V, enl.C.G[lo:]]),
                          references.expand_rows(C1, g1, ext, Dp.G))


@pytest.mark.parametrize("tower", [(4, 15, 9, 11), (6, 63, 36, 38), (6, 127, 70, 72)])
def test_enlarged_concat_matches_eliminating_reference(tower):
    """The code built from its certified factors against the eliminating
    build, [[60,10]], [[378,44]] and [[762,60]]: the same generator entry by
    entry, the same dimensions, C + span(V) the reference's C' and the same
    report."""
    C1, g1, ext, D, Dp, enl = _distance2_tower(*tower)
    ref, ref_cprime = references.enlarged_concat(C1, g1, ext, D, Dp)
    assert np.array_equal(enl.G, ref.G)
    assert np.array_equal(enl.V, ref.V) and np.array_equal(enl.M, ref.M)
    Cp = _cprime(enl)
    assert ((enl.length, enl.logical_dims, enl.C.dim, Cp.dim)
            == (ref.length, ref.logical_dims, ref.C.dim, ref_cprime.dim))
    assert Cp.is_subcode(ref_cprime) and ref_cprime.is_subcode(Cp)
    assert enl.report == ref.report


def test_enlarged_concat_runs_no_wide_elimination(monkeypatch):
    """Every elimination of a [[378,44]] build is narrower than nN = 378:
    the (A) check and the quotient distance are n wide, the fixed-point-free
    certificate k (K' - K) = 8 wide.  The eliminating build ran four rrefs
    at least 378 columns wide: the ranks of both expanded generators and of
    the dual's check, and the 800-wide row profile."""
    C1, g1, ext, D, Dp = _distance2_inputs(6, 63, 36, 38)
    widths = []
    for kind, rref in list(matrix._RREF.items()):
        def spy(f, a, _rref=rref):
            widths.append(a.shape[1])
            return _rref(f, a)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    enl = enlarged_concat(C1, g1, ext, D, Dp)
    assert (enl.length, enl.logical_dims) == (378, 44)
    assert widths and max(widths) < enl.length


def test_enlarged_concat_gap_and_dependent_check_rows():
    """A tower gap of one expanded row, k (K' - K) = 1, raises the (B) gap
    condition; an inner check with a repeated row makes the N copies of it
    dependent and raises RankDeficient, as the rank-checked expanded
    generator did."""
    C1 = LinearCode.full_space(F4, 1)
    e4 = Extension(F4, 1)
    pts = [e4.alpha_pow(j) for j in range(3)] + [0]
    D = self_dual_multiplier_grs(e4, pts, 2)
    with pytest.raises(ConditionViolation, match=re.escape("(B) tower gap below 2")):
        enlarged_concat(C1, [[1]], e4, D, GrsCode(e4, pts, D.multipliers, 3))
    G4m, b4, gs4 = distance2_inner_generator(F4, 4)
    e16, D, Dp = _tower_gf4(5, 3, 5)
    repeated = LinearCode.from_parity_check(F4, np.array([b4, b4]))
    with pytest.raises(RankDeficient, match="generator matrix is not full rank"):
        enlarged_concat(repeated, gs4, e16, D, Dp)


# -- pinned behaviour -----------------------------------------------------------

@pytest.mark.parametrize("f, m", [(F4, 8), (Field(2, 4), 4), (F4, 11)])
def test_fpf_golden_large(f, m):
    """x^m + x + 2 is rootless in GF(4) and GF(16); m = 11 is certified too."""
    M = fixed_point_free_matrix(f, m)
    assert np.array_equal(M[:-1], np.eye(m, k=1, dtype=np.int64)[:-1])
    assert M[-1].tolist() == [2, 1] + [0] * (m - 2)
    assert _verify_fixed_point_free(f, M)


def test_enlarged_concat_generator_count_and_columns():
    G4m, _, gs4 = distance2_inner_generator(F4, 4)
    C1 = LinearCode(F4, G4m.a)
    e16, D, Dp = _tower_gf4(5, 3, 5)
    # one orthonormal generator, orthogonal to dual(C1), spans too little
    with pytest.raises(ConditionViolation, match=r"\(B\) generators are not"):
        enlarged_concat(C1, gs4[:1], e16, D, Dp)
    with pytest.raises(DomainError):
        enlarged_concat(C1, np.array(gs4)[:, :3], e16, D, Dp)


def test_enlarged_concat_rejects_g1_outside_the_field():
    """g1 = I + 2 over GF(2) was accepted and used as its reduction mod 2,
    I; its entries are not codes of the field, so it raises DomainError,
    while g1 = I builds the [[8,2]] code."""
    ext = Extension(F2, 2)
    pts = [ext.alpha_pow(j) for j in range(3)] + [0]
    D = self_dual_multiplier_grs(ext, pts, 2)
    Dp = GrsCode(ext, pts, D.multipliers, 3)
    C1 = LinearCode.full_space(F2, 2)
    enl = enlarged_concat(C1, np.eye(2, dtype=np.int64), ext, D, Dp)
    assert (enl.length, enl.logical_dims) == (8, 2)
    for bad in (np.eye(2, dtype=np.int64) + 2, -np.eye(2, dtype=np.int64), np.eye(2) / 2):
        with pytest.raises(DomainError, match="g1 entries"):
            enlarged_concat(C1, bad, ext, D, Dp)


@pytest.mark.parametrize("tower", [(4, 15, 9, 11), (5, 31, 18, 20), (6, 63, 36, 38)])
def test_steane_enlarge_elimination_count(tower, monkeypatch):
    """The completion is one row profile, whatever the length."""
    enl = _distance2_tower(*tower)[-1]
    C, Cp = LinearCode(F4, enl.C.G), _cprime(enl)
    calls = []
    for kind, rref in list(matrix._RREF.items()):
        def spy(*args, _rref=rref):
            calls.append(1)
            return _rref(*args)
        monkeypatch.setitem(matrix._RREF, kind, spy)
    again = steane_enlarge(C, Cp)
    assert len(calls) == 6
    assert np.array_equal(again.G, enl.G)
