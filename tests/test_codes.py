"""Linear codes, CSS pairs, coset generators, leader tables."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssconcat import fileio
from cssconcat.codes import (
    CosetLeaderTable,
    CssPair,
    LinearCode,
    bvector_pair,
    css_min_distance,
    min_weight_excluding,
    validate_css,
)
from cssconcat.errors import (
    BadComplement,
    DomainError,
    LengthMismatch,
    NotOrthogonal,
    RankDeficient,
    TooLarge,
    ZeroEntry,
)
from cssconcat.galois import Field
from cssconcat.matrix import MatGF
import references
from references import coset_generators, inverse, random_css_pair

F2 = Field(2)

HAMMING_H = np.array([[1, 0, 1, 0, 1, 0, 1],
                      [0, 1, 1, 0, 0, 1, 1],
                      [0, 0, 0, 1, 1, 1, 1]])


def steane_code():
    return LinearCode.from_parity_check(F2, HAMMING_H)


def test_linear_code_dims():
    C = steane_code()
    assert (C.n, C.dim) == (7, 4)
    assert C.dual().dim == 3
    assert not F2.matmul(C.G, C.H.T).any()


def test_dual_of_redundant_parity_check():
    """A parity check with a repeated row: the dual has its rank, not its
    row count, and H itself is kept as given."""
    C = LinearCode.from_parity_check(F2, [[1, 1, 1, 1], [1, 1, 1, 1]])
    assert C.dim == 3 and C.H.shape == (2, 4)
    D = C.dual()
    assert D.dim == 1 and D.G.tolist() == [[1, 1, 1, 1]]
    assert D.dual().dim == 3
    assert MatGF(F2, D.G).rank == D.dim
    f3 = Field(3)
    H = np.array([[1, 2, 0, 1], [0, 1, 1, 1], [1, 0, 1, 2]])  # row 3 = row 1 + row 2
    C3 = LinearCode.from_parity_check(f3, H)
    assert C3.dim == 2 and C3.dual().dim == 2
    assert C3.dual().is_subcode(LinearCode.from_parity_check(f3, C3.G))


def test_rank_deficient_generator():
    with pytest.raises(RankDeficient):
        LinearCode(F2, [[1, 1, 0], [1, 1, 0]])


def test_contains():
    C = steane_code()
    assert C.contains_rows(C.G[:1])[0]
    assert C.dual().is_subcode(C)  # Hamming contains its dual


def test_min_weight_excluding_full_vs_sub():
    C = steane_code()
    assert min_weight_excluding(C, C.dual(), 1 << 20) == 3
    full = LinearCode.full_space(F2, 4)
    even = LinearCode.from_parity_check(F2, np.ones((1, 4), dtype=np.int64))
    assert min_weight_excluding(full, even, 1 << 20) == 1
    assert min_weight_excluding(even, even.dual(), 1 << 20) == 2


def test_min_weight_excluding_zero_subcode():
    """With C2 the full space, B = dual(C2) is the zero code and w(C \\ B) is
    the minimum weight of C, found here by brute force over every message."""
    for f, H in ((F2, HAMMING_H), (Field(3), [[1, 1, 1, 1, 0], [0, 1, 2, 0, 1]]),
                 (Field(2, 2), [[1, 1, 1, 1], [0, 1, 2, 3]])):
        for C in (LinearCode.from_parity_check(f, H), LinearCode.full_space(f, len(H[0]))):
            B = LinearCode.full_space(f, C.n).dual()
            assert B.dim == 0 and B.G.shape == (0, C.n)
            msgs = np.array(list(itertools.product(range(f.q), repeat=C.dim)))
            weights = np.count_nonzero(f.matmul(msgs, C.G), axis=1)
            assert weights[0] == 0  # the zero message comes first
            assert min_weight_excluding(C, B, 1 << 20) == weights[1:].min()


def test_min_weight_cap():
    """q^dim C above the cap raises TooLarge; equal to it is enumerated."""
    C = LinearCode.full_space(F2, 30)
    with pytest.raises(TooLarge):
        min_weight_excluding(C, C.dual(), 1 << 10)
    for f, n in ((F2, 5), (Field(3), 4), (Field(2, 2), 3)):
        C = LinearCode.full_space(f, n)
        B = C.dual()
        assert min_weight_excluding(C, B, f.q ** n) == 1
        with pytest.raises(TooLarge):
            min_weight_excluding(C, B, f.q ** n - 1)


@pytest.mark.parametrize("q", [(2, 1), (3, 1), (2, 2)])
def test_min_weight_excluding_matches_direct_reference(q):
    """Random C and random subcodes B (the zero code included) over GF(2),
    GF(3) and GF(4): the shared enumerator against the least weight over the
    listed rows of C outside the listed rows of B."""
    f = Field(*q)
    rng = np.random.default_rng(30 + f.q)
    checked = 0
    while checked < 25:
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(n, {2: 7, 3: 5, 4: 4}[f.q]) + 1))
        G = rng.integers(0, f.q, size=(k, n))
        if MatGF(f, G).rank != k:
            continue
        b = int(rng.integers(0, k))
        Bg = f.matmul(rng.integers(0, f.q, size=(b, k)), G)
        if MatGF(f, Bg).rank != b:
            continue
        C, B = LinearCode(f, G), LinearCode(f, Bg)
        assert min_weight_excluding(C, B, 1 << 20) == references.min_weight_outside(f, G, Bg)
        checked += 1


def test_validate_css():
    C = steane_code()
    assert validate_css(C, C)
    even = LinearCode.from_parity_check(F2, np.ones((1, 7), dtype=np.int64))
    assert not validate_css(even, even)  # dual(C2)=span(1)^... all-ones not in even


def _check_pair_postconditions(pair):
    f = pair.field
    # pairing <g1_i, g2_j> = delta_ij
    gram = f.matmul(pair.g1, pair.g2.T)
    assert np.array_equal(gram, np.eye(pair.k, dtype=np.int64))
    # C1 = dual(C2) + span g1; C2 = dual(C1) + span g2
    from cssconcat.matrix import MatGF
    m1 = MatGF(f, np.concatenate([pair.C2.H, pair.g1], axis=0))
    assert m1.same_row_space(pair.C1.Gmat)
    m2 = MatGF(f, np.concatenate([pair.C1.H, pair.g2], axis=0))
    assert m2.same_row_space(pair.C2.Gmat)
    # g2 rows orthogonal to dual(C2)
    assert not f.matmul(pair.g2, pair.C2.H.T).any()


def test_coset_generators_steane():
    C = steane_code()
    pair = CssPair.build(C, C)
    assert pair.k == 1
    _check_pair_postconditions(pair)


def test_coset_generators_randomized():
    rng = np.random.default_rng(11)
    violations = 0
    for i in range(100):
        f = [Field(2), Field(3), Field(2, 2)][i % 3]
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, min(n, 4) + 1))
        pair = random_css_pair(rng, f, n, k)
        try:
            _check_pair_postconditions(pair)
        except AssertionError:
            violations += 1
    assert violations == 0


def test_explicit_g1_coset_generators():
    C = steane_code()
    g1 = None
    for row in C.G:
        if not C.dual().contains_rows(row[None, :])[0]:
            g1 = row[None, :]
            break
    g2 = coset_generators(C, C, g1)
    assert F2.dot(g1[0], g2[0]) == 1
    assert C.contains_rows(g2).all()


def test_bvector_pair():
    pair = bvector_pair(F2, [1, 1, 1, 1], [1, 1, 1, 1])
    assert (pair.n, pair.k) == (4, 2)
    assert css_min_distance(pair) == 2
    with pytest.raises(ZeroEntry):
        bvector_pair(F2, [1, 0, 1, 1], [1, 1, 1, 1])
    f3 = Field(3)
    with pytest.raises(NotOrthogonal):
        bvector_pair(f3, [1, 1, 1, 1], [1, 1, 1, 2])


def test_bvector_pair_rejects_entries_outside_the_field():
    """b entries outside [0, q) raise DomainError; 5 over GF(2) once raised
    IndexError from the field's tables, and -1 or 1.5 are not codes."""
    for b1, b2 in (([1, 1, 5, 1], [1, 1, 1, 1]), ([1, 1, 1, 1], [1, 1, 1, 3]),
                   ([1, -1, 1, 1], [1, 1, 1, 1]), ([1, 1, 1.5, 1], [1, 1, 1, 1])):
        with pytest.raises(DomainError):
            bvector_pair(F2, b1, b2)


def test_bvector_pair_with_equal_checks_is_one_code():
    """Equal checks give one code as both C1 and C2; different checks give
    two codes, each with its own check."""
    for f, n in ((F2, 6), (Field(3), 6), (Field(2, 2), 4)):
        pair = bvector_pair(f, [1] * n, [1] * n)
        assert pair.C1 is pair.C2 and (pair.n, pair.k) == (n, n - 2)
    f3 = Field(3)
    pair = bvector_pair(f3, [1] * 6, [1, 2] * 3)
    assert pair.C1 is not pair.C2 and (pair.n, pair.k) == (6, 4)
    assert pair.C1.H.tolist() == [[1] * 6] and pair.C2.H.tolist() == [[1, 2] * 3]


def test_leader_table_is_kept_on_the_code():
    """leader_table builds the table on the first request and returns that
    table after, whatever the cap; its entries are those of a fresh
    CosetLeaderTable.  A cap below q^m raises TooLarge before and after the
    table is built, as the constructor does."""
    f3 = Field(3)
    C = LinearCode.from_parity_check(f3, np.array([[1, 1, 1, 1, 1, 1], [0, 1, 2, 0, 1, 2]]))
    with pytest.raises(TooLarge, match="syndrome table of size 9 exceeds cap"):
        C.leader_table(cap=8)
    table = C.leader_table()
    assert C.leader_table() is table and C.leader_table(cap=9) is table
    assert C.leader_table(cap=1 << 24) is table
    fresh = CosetLeaderTable(C, cap=9)  # chunks of one pattern
    assert np.array_equal(table.leaders, fresh.leaders)
    for cap in (8, 1):
        with pytest.raises(TooLarge, match="syndrome table of size 9 exceeds cap"):
            C.leader_table(cap=cap)
    assert C.leader_table() is table


def _weights(table):
    """The weight of each syndrome's leader, read off the leaders."""
    return np.count_nonzero(table.leaders, axis=1)


def test_leader_table_hamming():
    C = steane_code()
    table = CosetLeaderTable(C)
    assert _weights(table).tolist() == [0] + [1] * 7
    # determinism and lexicographic tie-break: rebuild identical
    table2 = CosetLeaderTable(C)
    assert np.array_equal(table.leaders, table2.leaders)


def test_leader_table_decodes_within_radius():
    C = steane_code()
    table = CosetLeaderTable(C)
    for i in range(7):
        e = np.zeros(7, dtype=np.int64)
        e[i] = 1
        s = C.syndrome(e)
        assert np.array_equal(table.leaders[table.pack(s)], e)


def test_syndrome_rejects_entries_outside_the_field():
    """2, 3, -1 and 0.5 over GF(2), and 4 over GF(3), once gave syndromes
    [0], [1], [1], [0] and [1]: they raise DomainError, as contains_rows does."""
    for f, bads in ((F2, (2, 3, -1, 0.5)), (Field(3), (4,))):
        C = LinearCode.from_parity_check(f, np.ones((1, 6), dtype=np.int64))
        for bad in bads:
            e = [bad, 0, 0, 0, 0, 0]
            for call in (C.syndrome, lambda v: C.contains_rows([v])):
                with pytest.raises(DomainError):
                    call(e)
            with pytest.raises(DomainError):
                C.syndrome([e, [0] * 6])
        e = np.array([[1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]])
        want = (e @ C.H.T) % f.p
        for E in (e, e.astype(np.int8), e.astype(bool), e.astype(float)):
            got = C.syndrome(E)
            assert got.dtype == f.dtype and np.array_equal(got, want)
        assert np.array_equal(C.syndrome(e[1]), want[1])


def test_leader_table_q3():
    f3 = Field(3)
    C = LinearCode.from_parity_check(f3, np.array([[1, 1, 1, 1]]))
    table = CosetLeaderTable(C)
    assert _weights(table).tolist() == [0, 1, 1]
    # leader of syndrome 1 is the lexicographically smallest weight-1 vector
    assert table.leaders[1].tolist() == [0, 0, 0, 1]


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_pack_matches_power_sum(q, m):
    """The Horner-form table index equals sum_j s_j q**j, for m = 0 and for
    empty and multi-axis leading shapes too."""
    f = Field(2, 2) if q == 4 else Field(q)
    rng = np.random.default_rng(10 * q + m)
    H = np.concatenate([np.eye(m, dtype=np.int64), rng.integers(0, q, size=(m, 2))], axis=1)
    table = CosetLeaderTable(LinearCode.from_parity_check(f, H))
    qpows = q ** np.arange(m, dtype=np.int64)
    for lead in [(), (0,), (5,), (3, 7)]:
        S = rng.integers(0, q, size=lead + (m,)).astype(f.dtype)
        got = table.pack(S)
        assert got.dtype == np.int64 and got.shape == lead
        assert np.array_equal(got, (S.astype(np.int64) * qpows).sum(axis=-1))
    assert table.pack(np.full(m, q - 1)) == q ** m - 1


def _leader_loop(C):
    """Coset leaders by one pattern at a time: weights in increasing order,
    supports and values lexicographically, and a leader replaced only by a
    lexicographically smaller pattern of the same weight."""
    f, H = C.field, C.H
    m, n = H.shape
    qpows = f.q ** np.arange(m, dtype=np.int64)
    leaders = np.zeros((f.q ** m, n), dtype=f.dtype)
    weights = np.full(f.q ** m, -1, dtype=np.int64)
    weights[0] = 0
    for w in range(1, n + 1):
        if (weights >= 0).all():
            break
        for support in itertools.combinations(range(n), w):
            for values in itertools.product(range(1, f.q), repeat=w):
                vec = np.zeros(n, dtype=f.dtype)
                vec[list(support)] = values
                s = int((f.matmul(vec[None, :], H.T)[0] * qpows).sum())
                if weights[s] == -1 or (weights[s] == w
                                        and tuple(vec) < tuple(leaders[s])):
                    weights[s] = w
                    leaders[s] = vec
    return leaders, weights


# weight-3 leaders over GF(5) whose smallest pattern comes from an earlier
# chunk of supports than a larger one with the same syndrome
MERGED_CHUNKS = [[1, 1, 0, 0, 0], [0, 4, 3, 4, 2], [3, 4, 3, 3, 2], [2, 4, 1, 4, 3]]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_leader_table_matches_pattern_loop(q):
    """Random codes, and MERGED_CHUNKS over GF(5); a cap of q^m puts at most
    a few supports in a chunk."""
    f = Field(2, 2) if q == 4 else Field(q)
    rng = np.random.default_rng(q)
    made = 0
    while made < 8:
        n = int(rng.integers(2, 10 if q == 2 else 7))
        m = int(rng.integers(1, min(n, 4 if q == 2 else 3) + 1))
        H = np.array(MERGED_CHUNKS) if q == 5 and not made else rng.integers(0, q, size=(m, n))
        m = len(H)
        if MatGF(f, H).rank != m:
            continue
        C = LinearCode.from_parity_check(f, H)
        leaders, weights = _leader_loop(C)
        for cap in (f.q ** m, 1 << 20):
            table = CosetLeaderTable(C, cap=cap)
            assert table.leaders.dtype == leaders.dtype
            assert np.array_equal(table.leaders, leaders)
            assert np.array_equal(_weights(table), weights)
        made += 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_leader_table_matches_merge_sort_reference(q):
    """Leaders, weights and dtypes equal those of the merge-sort
    construction (references.merge_sort_leader_table) on a full space
    (m = 0), length 1, one check row, MERGED_CHUNKS over GF(5) and random
    codes, under a cap of q^m, which cuts weight 2 and up into several
    chunks, and under the default cap."""
    f = Field(2, 2) if q == 4 else Field(q)
    rng = np.random.default_rng(40 + q)
    codes = [LinearCode.full_space(f, 3), LinearCode.from_parity_check(f, [[1]]),
             LinearCode.from_parity_check(f, np.ones((1, 6), dtype=np.int64))]
    if q == 5:
        codes.append(LinearCode.from_parity_check(f, np.array(MERGED_CHUNKS)))
    while len(codes) < 9:
        n = int(rng.integers(3, 12 if q == 2 else 7))
        H = rng.integers(0, q, size=(int(rng.integers(1, min(n, 5 if q == 2 else 3) + 1)), n))
        if MatGF(f, H).rank == len(H):
            codes.append(LinearCode.from_parity_check(f, H))
    for C in codes:
        for cap in (f.q ** len(C.H), 1 << 20):
            leaders, weights = references.merge_sort_leader_table(C, cap)
            table = CosetLeaderTable(C, cap=cap)
            assert table.leaders.dtype == leaders.dtype
            assert np.array_equal(table.leaders, leaders)
            assert np.array_equal(_weights(table), weights)


def test_css_pair_invalid():
    even = LinearCode.from_parity_check(F2, np.ones((1, 7), dtype=np.int64))
    with pytest.raises(NotOrthogonal):
        CssPair.build(even, even)


# -- the row-profile construction against the greedy reference ----------------

def greedy_pair(C1, C2, g1=None):
    """The generators by greedy span checks, one elimination per candidate:
    g1 from the rows of C1.G independent of what is chosen so far, the
    completion from standard basis vectors, then one inversion of
    A = [C2.H; g1; completion].  Returns ``(g1, g2)``."""
    f, n = C1.field, C1.n
    k = C1.dim + C2.dim - n
    span = MatGF(f, C2.H)
    if g1 is None:
        chosen = []
        for row in C1.G:
            if len(chosen) == k:
                break
            if not span.span_contains_rows(row[None, :])[0]:
                chosen.append(row)
                span = MatGF(f, np.concatenate([span.a, row[None, :]]))
        assert len(chosen) == k
        g1 = np.array(chosen, dtype=f.dtype).reshape(k, n)
    else:
        span = MatGF(f, np.concatenate([span.a, g1]))
    assert span.rank == span.rows
    completion = []
    for i in range(n):
        if span.rows == n:
            break
        e = np.zeros(n, dtype=f.dtype)
        e[i] = 1
        if not span.span_contains_rows(e[None, :])[0]:
            completion.append(e)
            span = MatGF(f, np.concatenate([span.a, e[None, :]]))
    Ainv = inverse(f, span.a)
    m = len(C2.H)
    return g1, Ainv[:, m:m + k].T


def _same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


DIFF_FIELDS = [Field(2), Field(3), Field(2, 2), Field(5)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), which=st.integers(0, 3),
       n=st.integers(2, 9), k=st.integers(0, 4))
def test_row_profile_matches_greedy_reference(seed, which, n, k):
    f = DIFF_FIELDS[which]
    rng = np.random.default_rng(seed)
    pair = random_css_pair(rng, f, n, min(k, n))
    # C2 once as given (H supplied) and once with H a null space of C2.G
    for C2 in (pair.C2, LinearCode(f, pair.C2.G)):
        g1, g2 = greedy_pair(pair.C1, C2)
        built = CssPair.build(pair.C1, C2)
        assert _same(built.g1, g1) and _same(built.g2, g2)
        # an explicit g1: an invertible recombination of g1 plus dual(C2) rows
        if pair.k:
            while True:
                U = rng.integers(0, f.q, size=(pair.k, pair.k))
                if MatGF(f, U).rank == pair.k:
                    break
            V = rng.integers(0, f.q, size=(pair.k, len(C2.H)))
            gx = f.add(f.matmul(U, g1), f.matmul(V, C2.H))
            _, g2x = greedy_pair(pair.C1, C2, gx)
            assert _same(coset_generators(pair.C1, C2, gx), g2x)
            bx = CssPair.build(pair.C1, C2, gx)
            assert _same(bx.g1, gx.astype(f.dtype)) and _same(bx.g2, g2x)
            _check_pair_postconditions(bx)


def test_rejected_g1_keeps_exception_classes(tmp_path):
    C = steane_code()
    pair = CssPair.build(C, C)
    e0 = np.eye(7, dtype=np.int64)[:1]  # independent of dual(C) but not in C
    with pytest.raises(BadComplement):
        CssPair.build(C, C, e0)
    with pytest.raises(BadComplement):  # g1 inside dual(C2): dependent
        CssPair.build(C, C, C.H[:1])
    for shape in ((2, 7), (1, 6), (0, 7)):
        with pytest.raises(BadComplement):
            CssPair.build(C, C, np.ones(shape, dtype=np.int64))
    with pytest.raises(BadComplement):
        coset_generators(C, C, np.ones((2, 7), dtype=np.int64))
    b = bvector_pair(F2, [1] * 4, [1] * 4)
    for g1 in (b.g1[[0, 0]], np.stack([b.g1[0], F2.add(b.g1[0], b.C2.H[0])])):
        with pytest.raises(BadComplement):
            CssPair.build(b.C1, b.C2, g1)
    # a pair that is not nested, with and without g1
    even = LinearCode.from_parity_check(F2, np.ones((1, 7), dtype=np.int64))
    with pytest.raises(NotOrthogonal):
        CssPair.build(even, even, np.eye(7, dtype=np.int64)[:5])
    with pytest.raises(NotOrthogonal):
        CssPair(even, even, np.zeros((5, 7)), np.zeros((5, 7)))
    with pytest.raises(LengthMismatch):
        CssPair.build(C, LinearCode.full_space(F2, 6))
    # the certificate of a directly assembled pair
    g1, g2 = pair.g1, pair.g2
    with pytest.raises(BadComplement):  # g2 outside C2
        CssPair(C, C, g1, np.eye(7, dtype=np.int64)[:1])
    with pytest.raises(BadComplement):  # g1 outside C1
        CssPair(C, C, e0, g2)
    with pytest.raises(BadComplement):  # g1 g2^T = 0
        CssPair(C, C, g1, np.zeros_like(g2))
    with pytest.raises(BadComplement):
        CssPair(C, C, g1[:, :6], g2)
    assert CssPair(C, C, g1, g2).k == 1
    # a user g1 read from a pair file
    path = tmp_path / "pair.txt"
    fileio.write_pair(path, pair)
    assert _same(fileio.read_pair(path).g2, pair.g2)
    fileio.write_pair(path, CssPair.build(C, C))
    text = path.read_text().splitlines()
    text[-1] = " ".join(["1"] + ["0"] * 6)
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(BadComplement):
        fileio.read_pair(path)


@pytest.mark.parametrize("f", [Field(3), Field(2, 2)], ids=["GF3", "GF4"])
def test_build_keeps_exception_classes_over_odd_and_extension_fields(f):
    """Over GF(3) and GF(4), as over GF(2): codes of different lengths raise
    LengthMismatch, codes that are not nested NotOrthogonal whatever g1 is
    given, and a nested pair with a g1 that does not complement dual(C2)
    inside C1, or mismatched generators, BadComplement."""
    n = 3 if f.q == 3 else 4  # 1^n is self-orthogonal: n = 0 mod p
    pair = bvector_pair(f, [1] * n, [1] * n)
    C1, C2, k = pair.C1, pair.C2, pair.k
    with pytest.raises(LengthMismatch):
        CssPair.build(C1, LinearCode.full_space(f, n + 1))
    with pytest.raises(LengthMismatch):
        CssPair(C1, LinearCode.full_space(f, n - 1), pair.g1, pair.g2)
    # span(1^m) with m = 1 mod p is not orthogonal to itself: dual(C2) is not in C1
    lone = LinearCode.from_parity_check(f, np.ones((1, n + 1), dtype=np.int64))
    g1 = np.eye(n + 1, dtype=np.int64)[:n - 1]
    for args in ((), (g1,), (g1[:1],), (np.ones((2, n), dtype=np.int64),)):
        with pytest.raises(NotOrthogonal):
            CssPair.build(lone, lone, *args)
    with pytest.raises(NotOrthogonal):
        CssPair(lone, lone, g1, g1)
    unit = np.eye(n, dtype=np.int64)[:k]  # independent of dual(C2) but outside C1
    for g in (unit, pair.C2.H[:1].repeat(k, axis=0), pair.g1[[0] * k] if k > 1 else unit[:, :-1],
              np.ones((k + 1, n), dtype=np.int64)):
        with pytest.raises(BadComplement):
            CssPair.build(C1, C2, g)
    with pytest.raises(BadComplement):
        CssPair(C1, C2, pair.g1, f.mul(2, pair.g2) if f.q > 2 else unit)
    assert CssPair.build(C1, C2, pair.g1).k == k


def test_pair_with_redundant_dual_rows_rejected():
    """C2 from a parity check that repeats a row: its H is not a basis of
    dual(C2), so no A can be assembled from it."""
    H = np.array([[1, 1, 1, 1], [1, 1, 1, 1]])
    C2 = LinearCode.from_parity_check(F2, H)
    C1 = LinearCode.from_parity_check(F2, H[:1])
    with pytest.raises(BadComplement):
        CssPair.build(C1, C2)


# -- the one pairing product against the four-product reference ---------------

def _four_product_certificate(C1, C2, g1, g2):
    """The pair certificate by four products: validate_css, the shape check,
    then g1.C1.H^T, g2.C2.H^T and g1.g2^T."""
    f = C1.field
    if not validate_css(C1, C2):
        raise NotOrthogonal("dual(C2) is not contained in C1")
    g1, g2 = np.asarray(g1), np.asarray(g2)
    k, n = C1.dim + C2.dim - C1.n, C1.n
    if g1.shape != (k, n) or g2.shape != (k, n):
        raise BadComplement("shape")
    if (f.matmul(g1, C1.H.T).any() or f.matmul(g2, C2.H.T).any()
            or not np.array_equal(f.matmul(g1, g2.T), np.eye(k, dtype=np.int64))):
        raise BadComplement("not paired")


def _class_of(build, *args):
    try:
        build(*args)
    except (NotOrthogonal, BadComplement) as e:
        return type(e)
    return None


@pytest.mark.parametrize("f", [Field(2), Field(3), Field(2, 2)], ids=["GF2", "GF3", "GF4"])
def test_pairing_product_matches_four_product_reference(monkeypatch, f):
    """Random pairs, every single-entry change of g1 and of g2, a C2 whose
    dual breaks the containment, and g1 or g2 of the wrong shape: CssPair
    accepts the same pairs as the four-product reference and raises the same
    class, with one product for a pair of the right shape."""
    rng = np.random.default_rng(40 + f.q)
    products = []
    matmul = Field.matmul

    def spy(self, A, B):
        products.append(A.shape)
        return matmul(self, A, B)

    seen = set()
    for _ in range(12):
        n = int(rng.integers(3, 7))
        pair = random_css_pair(rng, f, n, int(rng.integers(1, n)))
        C1, C2, g1, g2 = pair.C1, pair.C2, pair.g1, pair.g2
        broken = LinearCode.from_parity_check(f, rng.integers(0, f.q, (len(C2.H), n)))
        cases = [(C1, C2, g1, g2), (C1, broken, g1, g2),
                 (C1, C2, g1[:, 1:], g2), (C1, broken, g1, g2[:, 1:])]
        for g, which in ((g1, 0), (g2, 1)):
            for i, j in itertools.product(range(g.shape[0]), range(n)):
                bad = g.copy()
                bad[i, j] = f.add(int(bad[i, j]), int(rng.integers(1, f.q)))
                cases.append((C1, C2, bad, g2) if which == 0 else (C1, C2, g1, bad))
        for args in cases:
            monkeypatch.setattr(Field, "matmul", spy)
            products.clear()
            got = _class_of(CssPair, *args)
            monkeypatch.undo()
            assert got is _class_of(_four_product_certificate, *args)
            if args[2].shape == args[3].shape == (pair.k, n):
                assert len(products) == 1
            seen.add(got)
    assert seen == {None, NotOrthogonal, BadComplement}
