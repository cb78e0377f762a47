"""Field and extension arithmetic tests."""

import numpy as np
import pytest

from cssconcat.errors import DomainError, NotABasis, NotPrimitive
from cssconcat.galois import Extension, Field


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
        xy = ext.mul(x, y)
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
        if not np.array_equal(ext.phi(ext.add(x, y)),
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
            assert ext.trace(ext.add(x, y)) == f.add(ext.trace(x), ext.trace(y))
    assert vals == {0, 1, 2}


def test_phi_dual_pairing():
    # phi_dual(x) . coords(y) = Tr(x*y), exhaustively over GF(8)
    ext = Extension(Field(2), 3)
    f = ext.base
    for x in range(8):
        for y in range(8):
            lhs = f.dot(ext.phi_dual(x), ext.coords(y))
            assert lhs == ext.trace(ext.mul(x, y))


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
            assert ext.trace(ext.mul(bi, dj)) == (1 if i == j else 0)


def test_self_dual_basis_char2():
    for ext in (Extension(Field(2), 1), Extension(Field(2, 2), 2),
                Extension(Field(2), 4)):
        sdb = ext.self_dual_basis()
        assert sdb is not None
        k = ext.k
        for i in range(k):
            for j in range(k):
                assert ext.trace(ext.mul(sdb[i], sdb[j])) == (1 if i == j else 0)


def test_dual_coordinate_identity():
    # phi_dual expresses an element in the dual basis
    ext = Extension(Field(2), 3)
    dual = ext.dual_basis()
    for x in range(8):
        coords = ext.phi_dual(x)
        acc = 0
        for c, d in zip(coords, dual):
            acc = ext.add(acc, ext.mul(ext.embed(int(c)), d))
        assert acc == x


def test_nonprimitive_poly_rejected():
    # x^2 + 1 over GF(3) is irreducible but its root has order 4, not 8
    with pytest.raises(NotPrimitive):
        Extension(Field(3), 2, (1, 0, 1))


def test_reducible_modulus_rejected():
    with pytest.raises(DomainError):
        Field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2


def test_coords_roundtrip():
    ext = Extension(Field(2, 2), 2)
    xs = np.arange(16)
    assert np.array_equal(ext.from_coords(ext.coords(xs)), xs)
    # GF(128) codes are int8, and 128 is no int8: from_coords widens first
    ext = Extension(Field(2, 7), 1)
    xs = np.arange(128)
    assert np.array_equal(ext.from_coords(ext.coords(xs).astype(np.int8)), xs)


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


def test_sqrt_char2():
    f = Field(2, 4)
    for a in range(16):
        s = f.sqrt(a)
        assert f.mul(s, s) == a


@pytest.mark.parametrize("base, k", [(Field(2), 3), (Field(3), 2), (Field(2), 4),
                                     (Field(2, 2), 2)])
def test_dual_table_matches_trace_definition(base, k):
    """Row a of dual_table is (Tr a, Tr alpha a, ..., Tr alpha^(k-1) a), for
    every element of GF(8), GF(9) and GF(16) (over GF(2) and over GF(4))."""
    ext = Extension(base, k)
    table = ext.dual_table
    assert table.shape == (ext.Q, k) and table.dtype == np.int64
    for a in range(ext.Q):
        want = [ext.trace(ext.mul(a, ext.alpha_pow(j))) for j in range(k)]
        assert table[a].tolist() == want
        assert ext.phi_dual(a).tolist() == want
    ext.phi_dual(1)[:] = 0  # a returned row is a copy, not a view of the table
    assert ext.dual_table[1].tolist() == [ext.trace(ext.alpha_pow(j)) for j in range(k)]


def test_dual_basis_rejects_dependent_elements():
    ext = Extension(Field(2), 3)
    with pytest.raises(NotABasis):
        ext.dual_basis([1, 2, 3])  # 3 = 1 + alpha


def test_self_dual_basis_golden():
    """The seeded search returns these bases; odd q with even k has none."""
    golden = {(2, 1, 3): [7, 3, 5], (2, 1, 4): [15, 13, 11, 8],
              (2, 1, 5): [8, 5, 7, 21, 30], (2, 1, 6): [38, 48, 37, 54, 57, 61],
              (2, 2, 2): [4, 5], (3, 1, 2): None}
    for (p, e, k), want in golden.items():
        assert Extension(Field(p, e), k).self_dual_basis() == want
