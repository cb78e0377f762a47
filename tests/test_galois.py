"""Field and extension arithmetic tests."""

import gc
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from cssconcat import galois
from cssconcat.errors import DomainError, NotABasis, NotPrimitive, TooLarge
from cssconcat.galois import Extension, Field
from cssconcat.matrix import digits
import references
from references import inverse


def test_gf2_add():
    f = Field(2)
    assert f.add(1, 1) == 0
    assert f.add(0, 1) == 1


def test_gf4_mult_by_modulus():
    f = Field(2, 2)  # modulus x^2 + x + 1
    assert f.modulus == (1, 1, 1)
    zeta = 2  # class of x
    assert f.mul(zeta, zeta) == 3  # zeta + 1


def test_gf3_inverse():
    f = Field(3)
    assert f.inv(2) == 2


def test_division_by_zero():
    f = Field(5)
    with pytest.raises(DomainError):
        f.inv(0)
    with pytest.raises(DomainError):
        f.div(3, 0)


def test_field_axioms_random():
    rng = np.random.default_rng(0)
    for f in (Field(2, 3), Field(3, 2), Field(5)):
        a = rng.integers(0, f.q, 200)
        b = rng.integers(0, f.q, 200)
        c = rng.integers(0, f.q, 200)
        assert np.array_equal(f.add(a, b), f.add(b, a))
        assert np.array_equal(f.mul(a, b), f.mul(b, a))
        assert np.array_equal(f.mul(a, f.add(b, c)),
                              f.add(f.mul(a, b), f.mul(a, c)))
        nz = a[a != 0]
        assert np.array_equal(f.mul(nz, np.array([f.inv(int(x)) for x in nz])),
                              np.ones(len(nz), dtype=np.int64))


def test_companion_matrix_golden():
    # q=2, f = x^3 + x + 1
    ext = Extension(Field(2), 3)
    assert ext.f == (1, 1, 0, 1)
    T = ext.companion_matrix()
    assert T.tolist() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]


def test_companion_matrix_k1():
    ext = Extension(Field(3), 1)
    T = ext.companion_matrix()
    assert T.shape == (1, 1)
    # x - c with c the primitive root of GF(3)
    assert T[0, 0] == ext.alpha


def test_companion_matrix_gf4():
    ext = Extension(Field(2), 2)
    assert ext.companion_matrix().tolist() == [[0, 1], [1, 1]]


def test_companion_shifts_powers():
    ext = Extension(Field(2), 3)
    T = ext.companion_matrix()
    f = ext.base
    for i in range(6):
        lhs = f.matmul(T, ext.coords(ext.alpha_pow(i))[:, None]).reshape(-1)
        assert np.array_equal(lhs, ext.coords(ext.alpha_pow(i + 1)))


def test_phi_special_values():
    ext = Extension(Field(2), 3)
    assert not ext.phi(0).any()
    assert np.array_equal(ext.phi(1), np.eye(3, dtype=np.int64))
    # alpha^3 = alpha + 1 so its matrix is T + I
    T = ext.companion_matrix()
    expect = (T + np.eye(3, dtype=np.int64)) % 2
    assert np.array_equal(ext.phi(ext.alpha_pow(3)), expect)
    # and it matches the matrix power
    T3 = ext.base.matmul(ext.base.matmul(T, T), T)
    assert np.array_equal(ext.phi(ext.alpha_pow(3)), T3)


def _phi_identity_violations(ext, pairs):
    f = ext.base
    bad = 0
    for x, y in pairs:
        xy = ext.as_field().mul(x, y)
        # multiplication-matrix action on plain coordinates
        lhs = f.matmul(ext.phi(x), ext.coords(y)[:, None]).reshape(-1)
        if not np.array_equal(lhs, ext.coords(xy)):
            bad += 1
        # dual-coordinate action
        lhs2 = f.matmul(ext.phi_dual(x), ext.phi(y))
        if not np.array_equal(lhs2, ext.phi_dual(xy)):
            bad += 1
        # homomorphism laws
        if not np.array_equal(ext.phi(xy), f.matmul(ext.phi(x), ext.phi(y))):
            bad += 1
        if not np.array_equal(ext.phi(ext.as_field().add(x, y)),
                              f.add(ext.phi(x), ext.phi(y))):
            bad += 1
    return bad


def test_phi_identities_exhaustive_gf8():
    ext = Extension(Field(2), 3)
    pairs = [(x, y) for x in range(8) for y in range(8)]
    assert _phi_identity_violations(ext, pairs) == 0


def test_phi_identities_exhaustive_gf16_over_gf4():
    ext = Extension(Field(2, 2), 2)
    pairs = [(x, y) for x in range(16) for y in range(16)]
    assert _phi_identity_violations(ext, pairs) == 0


def test_phi_identities_random_gf256():
    ext = Extension(Field(2), 8)
    rng = np.random.default_rng(1)
    pairs = rng.integers(0, 256, size=(500, 2))
    assert _phi_identity_violations(ext, [tuple(p) for p in pairs]) == 0


def test_trace_values():
    assert Extension(Field(2), 3).trace(1) == 1  # three conjugates of 1
    ext4 = Extension(Field(2), 2)
    assert ext4.trace(2) == 1  # zeta + zeta^2 = 1
    assert ext4.trace(0) == 0


def test_trace_linear_and_surjective():
    ext = Extension(Field(3), 2)
    f = ext.base
    vals = set()
    for x in range(ext.Q):
        vals.add(ext.trace(x))
        for y in range(ext.Q):
            assert ext.trace(ext.as_field().add(x, y)) == f.add(ext.trace(x), ext.trace(y))
    assert vals == {0, 1, 2}


def test_phi_dual_pairing():
    # phi_dual(x) . coords(y) = Tr(x*y), exhaustively over GF(8)
    ext = Extension(Field(2), 3)
    f = ext.base
    for x in range(8):
        for y in range(8):
            lhs = f.dot(ext.phi_dual(x), ext.coords(y))
            assert lhs == ext.trace(ext.as_field().mul(x, y))


@pytest.mark.parametrize("p, e, k", [(2, 1, 4), (3, 1, 4), (2, 2, 3), (3, 2, 2), (2, 1, 13)],
                         ids=["GF2^4", "GF3^4", "GF4^3", "GF9^2", "GF2^13"])
def test_from_dual_coords_inverts_dual_table(p, e, k):
    """from_dual_coords undoes phi_dual on every code, and the dual of the
    power basis, read from the same inverse, is the sum of the unit dual
    coordinates."""
    ext = Extension(Field(p, e), k)
    assert np.array_equal(ext.from_dual_coords(ext.dual_table), np.arange(ext.Q))
    assert np.array_equal(ext.dual_table[ext.from_dual_table], ext.coord_table)
    eye = np.eye(k, dtype=np.int64)
    assert ext.from_dual_coords(eye).tolist() == ext.dual_basis()


def test_dual_basis_involution():
    for ext in (Extension(Field(2), 3), Extension(Field(2, 2), 2),
                Extension(Field(3), 2)):
        basis = ext.power_basis()
        dual = ext.dual_basis(basis)
        again = ext.dual_basis(dual)
        assert list(again) == list(basis)


def test_dual_basis_gram():
    ext = Extension(Field(2), 4)
    basis = ext.power_basis()
    dual = ext.dual_basis(basis)
    for i, bi in enumerate(basis):
        for j, dj in enumerate(dual):
            assert ext.trace(ext.as_field().mul(bi, dj)) == (1 if i == j else 0)


def test_self_dual_basis_char2():
    for ext in (Extension(Field(2), 1), Extension(Field(2, 2), 2),
                Extension(Field(2), 4)):
        sdb = ext.self_dual_basis()
        assert sdb is not None
        k = ext.k
        for i in range(k):
            for j in range(k):
                assert ext.trace(ext.as_field().mul(sdb[i], sdb[j])) == (1 if i == j else 0)


def test_dual_coordinate_identity():
    # phi_dual expresses an element in the dual basis
    ext = Extension(Field(2), 3)
    dual = ext.dual_basis()
    for x in range(8):
        coords = ext.phi_dual(x)
        acc = 0
        for c, d in zip(coords, dual):
            acc = ext.as_field().add(acc, ext.as_field().mul(int(c), d))
        assert acc == x


def test_nonprimitive_poly_rejected():
    # x^2 + 1 over GF(3) is irreducible but its root has order 4, not 8
    with pytest.raises(NotPrimitive):
        Extension(Field(3), 2, (1, 0, 1))


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_coords_reject_codes_outside_the_extension():
    """coords range-checks its codes, so dual_basis neither wraps a negative
    code round to the top of the table nor fails with a bare IndexError."""
    ext = Extension(Field(2), 3)
    for basis in ([1, 2, -4], [1, 2, 9]):
        with pytest.raises(DomainError):
            ext.dual_basis(basis)
    for a in (-1, ext.Q, np.array([0, -1]), np.array([[1], [ext.Q]], dtype=np.int8)):
        with pytest.raises(DomainError):
            ext.coords(a)
    assert ext.coords(ext.Q - 1).tolist() == [1, 1, 1]


def test_per_code_lookups_reject_codes_outside_the_extension():
    """phi_dual, trace and phi check their codes as coords does: -1 and Q
    raise DomainError over GF(16), where -1 once read the row of Q - 1 and
    Q raised IndexError; so do 1.5 and an array entry of the trace."""
    ext = Extension(Field(2), 4)
    for a in (-1, ext.Q, np.int8(-1), 1.5):
        for lookup in (ext.phi_dual, ext.trace, ext.phi):
            with pytest.raises(DomainError, match="element codes"):
                lookup(a)
    for a in (np.array([0, -1]), np.array([ext.Q])):
        with pytest.raises(DomainError, match="element codes"):
            ext.trace(a)
    top = ext.Q - 1
    assert ext.phi_dual(top).tolist() == ext.dual_table[top].tolist()
    assert ext.trace(top) == ext.trace_table[top]
    assert ext.phi(top).tolist() == ext.coords(ext.as_field().mul(top, ext.power_basis())).T.tolist()


@pytest.mark.parametrize("build", [lambda: Field(2, 14), lambda: Field(2 ** 61 - 1),
                                   lambda: Extension(Field(2), 14),
                                   lambda: Extension(Field(2, 2), 7),
                                   lambda: Field(2, 15000), lambda: Field(3, 10 ** 7),
                                   lambda: Extension(Field(2), 10 ** 7)],
                         ids=["GF16384", "GF(2^61-1)", "GF2^14", "GF4^7",
                              "GF2^15000", "GF3^1e7", "GF2^1e7"])
def test_order_cap_at_construction(build):
    """One cap on the order of every field and extension (8192): an order
    past it fails when it is built, not on first use of its tables, and a
    huge prime fails before its primality test.  A huge degree fails at
    once: no power p^e is formed, and no digits of one enter the message."""
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="^(field|extension) order [pq]\\^[ek] exceeds table cap 8192$"):
        build()
    assert time.perf_counter() - start < 0.5


def test_largest_extension_constructs():
    ext = Extension(Field(2), 13)
    assert ext.Q == 8192 and ext.log[ext.alpha] == 1 and ext.coords(8191).tolist() == [1] * 13


def test_coords_roundtrip():
    ext = Extension(Field(2, 2), 2)
    xs = np.arange(16)
    assert np.array_equal(ext.from_coords(ext.coords(xs)), xs)
    # GF(128) codes are int8, and 128 is no int8: from_coords widens first
    ext = Extension(Field(2, 7), 1)
    xs = np.arange(128)
    assert np.array_equal(ext.from_coords(ext.coords(xs).astype(np.int8)), xs)


@pytest.mark.parametrize("p", [2, 3])
def test_from_coords_rejects_codes_outside_the_base_field(p):
    """Coordinates outside [0, q) raise DomainError in both coordinate
    systems, as coords does for element codes outside [0, Q), rather than
    wrapping to some element; in-range coordinates of any integer dtype
    give the same codes."""
    ext = Extension(Field(p), 4)
    for bad in ([p, 0, 0, 0], [-1, 0, 0, 0], [[0, 0, 0, 0], [0, 0, 0, p + 5]]):
        for decode in (ext.from_coords, ext.from_dual_coords):
            for dtype in (np.int64, np.int8):
                with pytest.raises(DomainError, match="coordinates"):
                    decode(np.asarray(bad, dtype=dtype))
            with pytest.raises(DomainError, match="coordinates"):
                decode(bad)
    table = ext.coord_table
    for dtype in (np.int8, np.uint8, np.int64):
        assert np.array_equal(ext.from_coords(table.astype(dtype)), np.arange(ext.Q))
        assert np.array_equal(ext.from_dual_coords(ext.dual_table.astype(dtype)),
                              np.arange(ext.Q))
    assert ext.from_coords([p - 1, 0, 0, 0]) == p - 1
    # int8 coordinates are read in place: only the int64 codes are made
    rows = np.tile(table.astype(np.int8), (100_000 // ext.Q + 1, 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        codes = ext.from_coords(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.1 * codes.nbytes + 65536


def test_float_coordinates_are_not_truncated():
    """Over GF(2)^4 a float coordinate or code that is not an integer raises
    DomainError instead of being cut to one (0.5 -> 0, 1.9 -> 1, 3.7 -> 3);
    NaN raises without a cast warning; integral floats keep working."""
    ext = Extension(Field(2), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in ([0.5, 1, 0, 0], [1.9, 0, 0, 0], [np.nan, 0, 0, 0]):
            for decode in (ext.from_coords, ext.from_dual_coords):
                with pytest.raises(DomainError, match="coordinates"):
                    decode(np.array(bad))
        for bad in ([3.7], [np.nan]):
            with pytest.raises(DomainError, match="element codes"):
                ext.coords(np.array(bad))
        assert ext.from_coords(np.array([1.0, 1.0, 0, 0])) == 3
        assert np.array_equal(ext.coords(np.array([3.0])), ext.coords([3]))


@pytest.mark.parametrize("base, k", [(Field(2), 6), (Field(3), 4), (Field(2, 2), 2)])
def test_coord_table_matches_digit_definition(base, k):
    """coords gathers from the lazy (Q, k) table: the base-q digits of every
    code of GF(64), GF(81) and GF(16) over GF(4), for scalars and arrays."""
    ext = Extension(base, k)
    q = base.q
    table = ext.coord_table
    assert table.shape == (ext.Q, k) and table.dtype == np.int64
    for a in range(ext.Q):
        assert table[a].tolist() == [(a // q ** j) % q for j in range(k)]
    codes = np.arange(ext.Q).reshape(-1, 1, 1)  # any leading shape
    assert np.array_equal(ext.coords(codes), table[codes])
    assert ext.coords(int(ext.alpha)).tolist() == table[ext.alpha].tolist()
    assert ext.coords(np.int64(5)).shape == (k,)
    ext.coords(1)[:] = q - 1  # a returned row is a copy, not a view of the table
    assert ext.coords(1).tolist() == [1] + [0] * (k - 1)
    assert np.array_equal(ext.from_coords(ext.coords(np.arange(ext.Q))), np.arange(ext.Q))


@pytest.mark.parametrize("base, k", [(Field(2), 3), (Field(3), 2), (Field(2), 4),
                                     (Field(2, 2), 2)])
def test_dual_table_matches_trace_definition(base, k):
    """Row a of dual_table is (Tr a, Tr alpha a, ..., Tr alpha^(k-1) a), for
    every element of GF(8), GF(9) and GF(16) (over GF(2) and over GF(4))."""
    ext = Extension(base, k)
    table = ext.dual_table
    assert table.shape == (ext.Q, k) and table.dtype == np.int64
    for a in range(ext.Q):
        want = [ext.trace(ext.as_field().mul(a, ext.alpha_pow(j))) for j in range(k)]
        assert table[a].tolist() == want
        assert ext.phi_dual(a).tolist() == want
    ext.phi_dual(1)[:] = 0  # a returned row is a copy, not a view of the table
    assert ext.dual_table[1].tolist() == [ext.trace(ext.alpha_pow(j)) for j in range(k)]


@pytest.mark.parametrize("base, k", [(Field(2), 1), (Field(2), 4), (Field(2), 12), (Field(3), 1),
                                     (Field(3), 4), (Field(5), 3), (Field(2, 2), 3), (Field(3, 2), 2)],
                         ids=["2^1", "2^4", "2^12", "3^1", "3^4", "5^3", "4^3", "9^2"])
def test_trace_form_tables_match_conjugate_sums(base, k):
    """dual_table = coord_table . T over GF(q), T[i, j] = Tr(alpha^(i+j)),
    and trace_table, its column 0, equal the conjugate-sum references entry
    for entry, as int64."""
    ext = Extension(base, k)
    dual, trace = references.conjugate_dual_table(ext), references.conjugate_trace_table(ext)
    assert ext.dual_table.dtype == dual.dtype == np.int64 and ext.dual_table.shape == (ext.Q, k)
    assert ext.trace_table.dtype == trace.dtype == np.int64 and ext.trace_table.shape == (ext.Q,)
    assert np.array_equal(ext.dual_table, dual)
    assert np.array_equal(ext.trace_table, trace)


def test_dual_basis_rejects_dependent_elements():
    ext = Extension(Field(2), 3)
    with pytest.raises(NotABasis):
        ext.dual_basis([1, 2, 3])  # 3 = 1 + alpha


def _gram_dual_basis(ext, basis):
    """The trace-dual basis by inverting the Gram matrix Tr(b_i b_m); None
    when it is singular."""
    fQ = ext.as_field()
    b = np.asarray(basis, dtype=np.int64)
    Ginv = inverse(ext.base, ext.trace(fQ.mul(b[:, None], b)))
    if Ginv is None:
        return None
    return [int(x) for x in fQ.add_reduce(fQ.mul(Ginv, b[:, None]), axis=0)]


@pytest.mark.parametrize("p, e, k", [(2, 1, 1), (2, 1, 3), (2, 1, 6), (2, 1, 8), (3, 1, 2),
                                     (3, 1, 4), (5, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
def test_dual_basis_matches_gram_inverse(p, e, k):
    """The inverted-table dual basis equals the Gram-matrix one, the power
    basis and random sets alike, and raises NotABasis exactly when the Gram
    matrix is singular."""
    ext = Extension(Field(p, e), k)
    assert ext.dual_basis() == _gram_dual_basis(ext, ext.power_basis())
    rng = np.random.default_rng(p * 100 + e * 10 + k)
    for _ in range(12):
        basis = [int(x) for x in rng.integers(0, ext.Q, size=k)]
        want = _gram_dual_basis(ext, basis)
        if want is None:
            with pytest.raises(NotABasis):
                ext.dual_basis(basis)
        else:
            assert ext.dual_basis(basis) == want


def _assert_orthonormal(ext, basis):
    b = np.asarray(basis, dtype=np.int64)
    assert len(b) == ext.k
    assert np.array_equal(ext.trace(ext.as_field().mul(b[:, None], b)), np.eye(ext.k))


def test_self_dual_basis_golden():
    """The Gram-Schmidt pass returns these bases, each orthonormal; odd q
    with even k has none."""
    golden = {(2, 1, 3): [3, 5, 7], (2, 1, 4): [8, 11, 13, 15],
              (2, 1, 5): [3, 5, 12, 17, 26], (2, 1, 6): [32, 35, 49, 55, 59, 63],
              (2, 2, 2): [4, 5], (3, 1, 2): None, (3, 1, 4): None, (5, 1, 2): None,
              (3, 2, 2): None}
    for (p, e, k), want in golden.items():
        ext = Extension(Field(p, e), k)
        got = ext.self_dual_basis()
        assert got == want, (p, e, k, got)
        if want is not None:
            _assert_orthonormal(ext, got)


def _primes(limit):
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


PRIME_POWERS = [(p, k) for p in _primes(256) for k in range(1, 9) if p ** k <= 256]


def test_self_dual_basis_takes_one_pass():
    """With the tables built, the basis of GF(4^5) and the None of GF(3^2)
    each take well under 50 ms: 0.2 and 0.05 ms measured on a shared 2-vCPU
    host, where a seeded random search took 0.1 s and 4 s."""
    for base, k in ((Field(2, 2), 5), (Field(3), 2)):
        ext = Extension(base, k)
        ext.as_field(), ext.trace_table
        start = time.perf_counter()
        ext.self_dual_basis()
        assert time.perf_counter() - start < 0.05, ext


SMALL_EXTENSIONS = [(p, e, k) for p in _primes(32) for e in range(1, 6) if p ** e <= 32
                    for k in range(1, 11) if p ** (e * k) <= 1024]


@pytest.mark.parametrize("p, e, k", SMALL_EXTENSIONS,
                         ids=[f"{p ** e}^{k}" for p, e, k in SMALL_EXTENSIONS])
def test_self_dual_basis_exists_iff_q_even_or_k_odd(p, e, k):
    """A basis comes back exactly when q is even or k is odd (Seroussi and
    Lempel), with Gram matrix I, and agrees with the backtracking reference
    wherever Q <= 81."""
    ext = Extension(Field(p, e), k)
    basis = ext.self_dual_basis()
    assert (basis is not None) == (p == 2 or k % 2 == 1)
    if basis is not None:
        _assert_orthonormal(ext, basis)
    if ext.Q <= 81:
        assert references.self_dual_basis_exists(ext) == (basis is not None)


def _digitwise(p, e, op, *codes):
    """``op`` on the base-p digits of the codes, reduced mod p and packed."""
    pows = p ** np.arange(e)
    digits = [(np.asarray(c, dtype=np.int64)[..., None] // pows) % p for c in codes]
    return ((op(*digits) % p) * pows).sum(axis=-1)


@pytest.mark.parametrize("f", [Field(2), Extension(Field(2), 6).as_field(),
                               Extension(Field(2, 2), 2).as_field(),
                               Extension(Field(3), 4).as_field()],
                         ids=["GF2", "GF64", "GF16/GF4", "GF81"])
def test_addition_is_digitwise_sum(f):
    """add/sub/neg/add_reduce agree with the sum of GF(p)-coordinates mod p
    (XOR in characteristic 2), for int64 and code-dtype input alike."""
    rng = np.random.default_rng(f.q)
    a, b = rng.integers(0, f.q, (2, 40, 6))
    for x, y in ((a, b), (a.astype(f.dtype), b.astype(f.dtype))):
        for got, want in ((f.add(x, y), _digitwise(f.p, f.e, np.add, a, b)),
                          (f.sub(x, y), _digitwise(f.p, f.e, np.subtract, a, b)),
                          (f.neg(x), _digitwise(f.p, f.e, np.negative, a))):
            assert got.dtype == f.dtype and np.array_equal(got, want)
        for axis in (0, 1, -1):
            want = _digitwise(f.p, f.e, lambda d: d.sum(axis=axis % 2), a)
            got = f.add_reduce(x, axis=axis)
            assert got.dtype == f.dtype and np.array_equal(got, want)
    x, y = int(a[0, 0]), int(b[0, 0])
    assert f.add(x, y) == int(_digitwise(f.p, f.e, np.add, x, y))
    assert f.sub(np.int64(x), y) == int(_digitwise(f.p, f.e, np.subtract, x, y))
    assert f.neg(x) == int(_digitwise(f.p, f.e, np.negative, x))


@pytest.mark.parametrize("f", [Field(3, 2), Field(5, 2), Extension(Field(3), 4).as_field(),
                               Field(3, 5)], ids=["GF9", "GF25", "GF81", "GF243"])
def test_add_reduce_fold_matches_digit_path(f):
    """The pairwise sum through the add table equals the sum of base-p
    digits mod p (the digit path it replaced) on every axis, on odd and even
    lengths, on a zero-length axis and on int8, int16 and int64 input."""
    rng = np.random.default_rng(f.q)
    dtypes = [np.int8, np.int16, np.int64] if f.q <= 128 else [np.int16, np.int64]
    for shape in ((7, 5, 3), (0, 4, 2), (3, 0, 2), (1, 6, 1), (9,)):
        a = rng.integers(0, f.q, shape)
        for dtype in dtypes:
            for axis in range(-len(shape), len(shape)):
                got = f.add_reduce(a.astype(dtype), axis=axis)
                want = _digitwise(f.p, f.e, lambda d: d.sum(axis=axis % len(shape)), a)
                assert got.dtype == f.dtype and np.shape(got) == np.shape(want)
                assert np.array_equal(got, want), (shape, dtype, axis)


def test_gf81_matmul_memory_peak():
    """A 256 x 21 by 21 x 80 product over GF(81) sums its terms pairwise
    through the add table in the field dtype: the tracemalloc peak, 0.9 MB,
    is its 0.4 MB product gather and the halves summed from it, not the
    30 MB of int64 digit arrays of that gather."""
    f = Extension(Field(3), 4).as_field()
    rng = np.random.default_rng(81)
    A = rng.integers(0, 81, (256, 21)).astype(f.dtype)
    B = rng.integers(0, 81, (21, 80)).astype(f.dtype)
    tracemalloc.start()
    try:
        out = f.matmul(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 10 ** 6
    prod = f.mul_table[A[:, :, None], B[None, :, :]]
    assert np.array_equal(out, _digitwise(f.p, f.e, lambda d: d.sum(axis=1), prod))


@pytest.mark.parametrize("build, cap_mb", [
    (lambda: Extension(Field(2), 10).as_field(), 24),
    (lambda: Field(3, 7), 40)], ids=["GF1024-of-extension", "GF2187"])
def test_table_build_memory_peak(build, cap_mb):
    """The multiplication table is built in row chunks and the add table
    composed digit by digit, so the tracemalloc peak stays near the tables
    kept: 2 MB for GF(1024) (no add table in characteristic 2) and
    2 x 9.6 MB for GF(3^7)."""
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= cap_mb * 10 ** 6


def test_digit_sum_tables_memory_peak():
    """The GF(3^7) sums are written straight into the int16 table: the
    tracemalloc peak is the tables kept, the GF(3^6) table they are
    composed from and at most 2 MB more.  An int64 table of sums,
    4 x 9.6 MB, does not fit."""
    tracemalloc.start()
    try:
        add, neg = galois._digit_sum_tables(3, 7, np.int16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    lower = 3 ** 12 * np.dtype(np.int16).itemsize
    assert add.shape == (3 ** 7, 3 ** 7) and add.dtype == neg.dtype == np.int16
    assert peak <= add.nbytes + neg.nbytes + lower + 2 * 2 ** 20


# -- the power table by block doubling against the scalar recurrence ----------

def _scalar_exp_table(base, k, f):
    """The power table of the root of ``f`` one power at a time: alpha^(i+1)
    from the digits of alpha^i by the companion recurrence.  None unless the
    Q - 1 powers are nonzero and distinct and alpha^(Q-1) = 1."""
    q, Q = base.q, base.q ** k
    red = [base.neg(c) for c in f[:k]]
    d = [1] + [0] * (k - 1)
    exp = np.empty(Q - 1, dtype=np.int64)
    log = np.full(Q, -1, dtype=np.int64)
    for i in range(Q - 1):
        code = sum(dj * q ** j for j, dj in enumerate(d))
        if code == 0 or log[code] != -1:
            return None
        exp[i], log[code] = code, i
        c = d[k - 1]
        d = [base.mul(c, red[0])] + [base.add(d[j - 1], base.mul(c, red[j]))
                                     for j in range(1, k)]
    if sum(dj * q ** j for j, dj in enumerate(d)) != 1:
        return None
    return exp, log


_PRIME_POWERS = [(p, e) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                  43, 47, 53, 59, 61)
                 for e in range(1, 7) if p ** e <= 64]


@pytest.mark.parametrize("p, e", _PRIME_POWERS)
def test_power_table_matches_scalar_recurrence(p, e):
    """Every degree k with q^k <= 4096 over every base field of order at
    most 64: the monic candidates with nonzero constant term, in the order
    the search tries them, up to the first primitive one and two beyond,
    give the same tables or the same None."""
    from cssconcat.galois import _build_exp_table, _find_primitive_poly
    base = Field(p, e)
    q = base.q
    k = 1
    while q ** k <= 4096:
        first, beyond, rejected = None, 0, 0
        for code in range(1, q ** k):
            f = [int(c) for c in digits(code, q, k)] + [1]
            if f[0] == 0:
                continue
            want = _scalar_exp_table(base, k, f)
            got = _build_exp_table(base, k, f)
            assert (got is None) == (want is None), (q, k, f)
            if first is not None:
                beyond += 1
            if want is None:
                if rejected < 2:
                    with pytest.raises(NotPrimitive):
                        Extension(base, k, f)
                rejected += 1
            else:
                assert all(g.dtype == w.dtype and np.array_equal(g, w)
                           for g, w in zip(got, want)), (q, k, f)
                first = first or f
            if beyond == 2:
                break
        assert first is not None and _find_primitive_poly(base, k) == first
        k += 1


# -- one table builder against polynomial references -------------------------

def _reduction_mul_table(p, e, modulus):
    """The GF(p^e) multiplication table by polynomial reduction modulo
    ``modulus``, all rows at once."""
    q = p ** e
    pows = p ** np.arange(e)
    D = (np.arange(q)[:, None] // pows) % p
    red = (-np.asarray(modulus[:e], dtype=np.int64)) % p
    X = np.empty((q, e, e), dtype=np.int64)  # X[a, j]: the digits of a * x^j
    X[:, 0] = D
    for j in range(1, e):
        X[:, j, 0] = 0
        X[:, j, 1:] = X[:, j - 1, :-1]
        X[:, j] = (X[:, j] + X[:, j - 1, -1:] * red) % p
    return (((D @ X) % p) * pows).sum(axis=-1)


def _assert_tables_match_reference(F, modulus=None):
    """Every table of ``F`` against polynomial reduction modulo ``modulus``
    (default ``F.modulus``) and digit-wise sums."""
    p, e, q = F.p, F.e, F.q
    ref = _reduction_mul_table(p, e, F.modulus if modulus is None else modulus)
    inv = np.zeros(q, dtype=np.int64)
    rows, cols = np.nonzero(ref == 1)
    inv[rows] = cols
    A = np.arange(q)
    assert F.dtype == (np.int8 if q <= 128 else np.int16)
    assert F.mul_table.dtype == F.inv_table.dtype == F.dtype
    assert np.array_equal(F.mul_table, ref)
    assert np.array_equal(F.inv_table, inv)
    assert np.array_equal(F.add(A[:, None], A), _digitwise(p, e, np.add, A[:, None], A))
    assert np.array_equal(F.neg(A), _digitwise(p, e, np.negative, A))


@pytest.mark.parametrize("p, e", PRIME_POWERS)
def test_field_tables_match_reduction_reference(p, e):
    """Every table of GF(p^e), q <= 256, under its default modulus equals
    the one polynomial reduction gives, whether or not x is primitive."""
    _assert_tables_match_reference(Field(p, e))


@pytest.mark.parametrize("p, k", PRIME_POWERS)
def test_extension_field_matches_polynomial_reduction(p, k):
    """The GF(Q) field of an extension, whose tables come from the log/exp of
    the primitive root, against polynomial reduction modulo the same f and
    digit-wise sums: every table agrees."""
    ext = Extension(Field(p), k)
    fQ = ext.as_field()
    assert fQ.kind == "tables"
    _assert_tables_match_reference(fQ, ext.f)


def test_extension_field_holds_no_reference_cycle():
    """The GF(Q) field keeps its extension's value key and repr, not the
    extension, which holds the field: with the cyclic collector off, a
    dropped extension and its field are freed once their last reference
    goes.  Fields of equal extensions compare and hash as the extensions do."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        ext = Extension(Field(3), 4)
        refs = weakref.ref(ext), weakref.ref(ext.as_field())
        del ext
        assert [r() for r in refs] == [None, None]
    finally:
        if enabled:
            gc.enable()
    ext, other = Extension(Field(2), 4), Extension(Field(2), 4, [1, 0, 0, 1, 1])
    assert ext.f != other.f
    fQ, same = ext.as_field(), Extension(Field(2), 4).as_field()
    assert fQ == same and hash(fQ) == hash(same) == hash(("view", ext))
    assert fQ != other.as_field() and fQ != Field(2, 4)
    assert repr(fQ) == f"Field(GF(16) of {ext!r})"


@pytest.mark.parametrize("p, e, modulus", [(3, 2, (1, 0, 1)),
                                           (2, 8, (1, 1, 0, 1, 1, 0, 0, 0, 1)),
                                           (2, 9, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1))],
                         ids=["GF9", "GF256", "GF512"])
def test_nonprimitive_modulus_tables_match_reduction_reference(p, e, modulus):
    """An explicit irreducible modulus whose root is not primitive: the
    generator is another element, and the tables are those of reduction."""
    with pytest.raises(NotPrimitive):
        Extension(Field(p), e, modulus)
    F = Field(p, e, modulus)
    assert F.modulus == modulus
    _assert_tables_match_reference(F)


# -- odd-p add tables composed digit by digit, against the digit-wise builder

_ODD_PRIMES = [p for p in _primes(1024) if p > 2]
_ODD_FULL = [(p, e) for p in _ODD_PRIMES for e in range(1, 11) if p ** e <= 1024]
# above 1024 every odd prime power with e >= 2; for e = 1 the table is the
# GF(p) one with no composition step, sampled at two primes
_ODD_SAMPLED = [(p, e) for p in _ODD_PRIMES for e in range(2, 9)
                if 1024 < p ** e <= 8192] + [(1031, 1), (4093, 1)]


@pytest.mark.parametrize("p, e", _ODD_FULL)
def test_odd_sum_tables_match_digitwise_builder(p, e):
    """Every odd q <= 1024: a Field's add and neg tables, values and dtype,
    are those of the digit-wise builder."""
    F = Field(p, e)
    add, neg = references.digitwise_sum_tables(p, e)
    assert F.add_table.dtype == F.neg_table.dtype == add.dtype == F.dtype
    assert F.add_table.shape == add.shape and neg.dtype == F.dtype
    assert np.array_equal(F.add_table, add) and np.array_equal(F.neg_table, neg)


@pytest.mark.parametrize("p, e", _ODD_SAMPLED)
def test_odd_sum_tables_match_digitwise_builder_sampled(p, e):
    """Every odd prime power 1024 < q <= 8192 (GF(3^8), GF(5^5), GF(7^4),
    GF(11^3), the squares of 37..89): 64 sampled rows of the add table and
    the whole neg table, from the builder alone, with no multiplication
    table."""
    q = p ** e
    T, N = galois._digit_sum_tables(p, e, galois.code_dtype(q))
    rows = np.random.default_rng(q).choice(q, 64, replace=False)
    add, neg = references.digitwise_sum_tables(p, e, rows)
    assert T.shape == (q, q) and T.dtype == N.dtype == add.dtype
    assert np.array_equal(T[rows], add) and np.array_equal(N, neg)


@pytest.mark.parametrize("p, e", [(3, 1), (3, 2), (3, 4), (3, 5), (5, 2), (7, 3), (251, 1)])
def test_digit_sum_tables_match_references(p, e):
    """The add and neg tables of the one-pass-per-digit composition equal,
    entry for entry and in dtype, both the digit-wise reference (digits,
    sum mod p, pack) and the composition in int64 row chunks that it
    replaced."""
    dtype = galois.code_dtype(p ** e)
    got = galois._digit_sum_tables(p, e, dtype)
    for want in (references.digitwise_sum_tables(p, e),
                 references.chunked_digit_sum_tables(p, e, dtype)):
        for table, ref in zip(got, want):
            assert table.dtype == ref.dtype == dtype
            assert table.shape == ref.shape and np.array_equal(table, ref)


def _poly_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            factor = (c * inv_lead) % p
            for j, mj in enumerate(m):
                a[i - dm + j] = (a[i - dm + j] - factor * mj) % p
    return _poly_trim([x % p for x in a[:dm]])


def _poly_powmod_x(n, m, p):
    """x^n modulo ``m`` by repeated squaring."""
    result, base = [1], _poly_mod([0, 1], m, p)
    while n:
        if n & 1:
            result = _poly_mulmod(result, base, m, p)
        base = _poly_mulmod(base, base, m, p)
        n >>= 1
    return result


def _poly_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_mod(out, m, p)


def _poly_gcd(a, b, p):
    while b:
        a, b = b, _poly_mod(a, b, p) if len(a) >= len(b) else a
    return a


def _poly_minus_x(poly, p):
    out = list(poly) + [0] * max(0, 2 - len(poly))
    out[1] = (out[1] - 1) % p
    return _poly_trim(out)


def _poly_rabin(f, p):
    """Rabin's test on coefficient lists: f | x^(p^e) - x, and
    gcd(x^(p^(e/r)) - x, f) = 1 for each prime r | e."""
    e = len(f) - 1
    if e == 1:
        return True  # every linear polynomial; x is not reduced modulo it
    if _poly_minus_x(_poly_powmod_x(p ** e, f, p), p):
        return False
    for r in (r for r in range(2, e + 1) if e % r == 0 and all(r % d for d in range(2, r))):
        diff = _poly_minus_x(_poly_powmod_x(p ** (e // r), f, p), p)
        if not diff or len(_poly_gcd(list(f), diff, p)) > 1:
            return False
    return True


def _irreducible_count(p, e):
    """Gauss: (1/e) sum over d | e of mu(d) p^(e/d) monic irreducibles."""
    def mu(d):
        primes = [r for r in range(2, d + 1) if d % r == 0 and all(r % s for s in range(2, r))]
        return 0 if any(d % (r * r) == 0 for r in primes) else (-1) ** len(primes)
    return sum(mu(d) * p ** (e // d) for d in range(1, e + 1) if e % d == 0) // e


@pytest.mark.parametrize("p, max_degree", [(2, 6), (3, 4), (5, 3), (7, 3)])
def test_matrix_rabin_matches_polynomial_rabin(p, max_degree):
    """Rabin's test on the companion matrix agrees with Rabin's test on
    coefficient lists for every monic polynomial, and both count Gauss's
    number of irreducibles."""
    for e in range(1, max_degree + 1):
        count = 0
        for code in range(p ** e):
            f = [(code // p ** j) % p for j in range(e)] + [1]
            got = galois._is_irreducible(f, p)
            assert got == _poly_rabin(f, p), (p, f)
            count += got
        assert count == _irreducible_count(p, e), (p, e)


def test_primitive_search_builds_one_power_table(monkeypatch):
    """The search rejects candidates by the order of their companion matrix;
    only the chosen polynomial gets a power table."""
    base = Field(2)
    sizes = []
    real = galois._power_table
    monkeypatch.setattr(galois, "_power_table", lambda P, p, Q: sizes.append(Q) or real(P, p, Q))
    monkeypatch.setattr(galois, "_PRIMITIVE_CACHE", {})
    ext = Extension(base, 10)
    assert ext.f != (1,) + (0,) * 9 + (1,)  # candidates were rejected first
    assert sizes == [1024]
