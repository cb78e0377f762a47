"""Linear codes, quotient codes, CSS pairs and paired coset generators.

The central object is :class:`CssPair`: two linear codes (C1, C2) of common
length n with the containment dual(C2) <= C1, together with k = k1 + k2 - n
paired coset generators g1, g2 satisfying

    C1 = dual(C2) + span(g1),   C2 = dual(C1) + span(g2),   <g1_i, g2_j> = delta_ij.

The generators are obtained by assembling an invertible n x n matrix from a
basis of dual(C2), the supplied g1 rows and a greedy completion, and reading
the paired vectors off columns of its inverse.  Postconditions are validated
rather than trusted.

Brute-force oracles (`min_weight_excluding`, `CosetLeaderTable`) enumerate
codewords or error patterns and are capped; they are meant as ground truth
for desk-size instances, not production decoders.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BadComplement,
    Degenerate,
    DomainError,
    LengthMismatch,
    NotOrthogonal,
    RankDeficient,
    TooLarge,
    ZeroEntry,
)
from .matrix import MatGF, as_codes, enumerate_span

ENUM_CAP = 1 << 24
TABLE_CAP = 1 << 20


class LinearCode:
    """An [n, k] linear code given by a full-rank generator matrix."""

    def __init__(self, field, G):
        mat = G if isinstance(G, MatGF) else MatGF(field, G)
        if mat.rank != mat.rows:
            raise RankDeficient("generator matrix is not full rank")
        self.field = field
        self.Gmat = mat
        self._Hmat = None

    @classmethod
    def _full_rank(cls, field, G):
        """A code from a generator matrix the caller has proved full rank
        (no elimination)."""
        code = cls.__new__(cls)
        code.field = field
        code.Gmat = G if isinstance(G, MatGF) else MatGF(field, G)
        code._Hmat = None
        return code

    @classmethod
    def from_parity_check(cls, field, H):
        mat = H if isinstance(H, MatGF) else MatGF(field, H)
        code = cls(field, mat.null_space())
        code._Hmat = mat
        return code

    @classmethod
    def full_space(cls, field, n):
        return cls(field, MatGF.identity(field, n))

    @property
    def n(self):
        return self.Gmat.cols

    @property
    def dim(self):
        return self.Gmat.rows

    @property
    def G(self):
        return self.Gmat.a

    @property
    def Hmat(self):
        if self._Hmat is None:
            self._Hmat = self.Gmat.null_space()
        return self._Hmat

    @property
    def H(self):
        return self.Hmat.a

    def dual(self):
        """The dual code (generated by the parity-check rows)."""
        d = LinearCode._full_rank(self.field, self.Hmat)
        d._Hmat = self.Gmat
        return d

    def contains(self, v):
        return self.Gmat.span_contains(v)

    def contains_rows(self, X):
        return self.Gmat.span_contains_rows(X)

    def is_subcode(self, other: "LinearCode"):
        if self.n != other.n:
            raise LengthMismatch("codes of different length")
        return bool(other.contains_rows(self.G).all())

    def syndrome(self, e):
        return self.field.matmul(np.asarray(e, dtype=np.int64), self.H.T)

    def __repr__(self):
        return f"LinearCode[{self.n},{self.dim}] over GF({self.field.q})"


@dataclass(frozen=True)
class QuotientCode:
    """A quotient C/B with B <= C; codewords are cosets of B inside C."""

    C: LinearCode
    B: LinearCode

    def __post_init__(self):
        if not self.B.is_subcode(self.C):
            raise NotOrthogonal("B is not a subcode of C")

    def coset_weight(self, v):
        """Minimum Hamming weight over the coset v + B (brute force)."""
        if self.B.dim and self.B.field.q ** self.B.dim > ENUM_CAP:
            raise TooLarge("coset too large to enumerate")
        v = np.asarray(v, dtype=np.int64)
        best = None
        for chunk in enumerate_span(self.B.field, self.B.G):
            w = np.count_nonzero(self.B.field.add(chunk, v[None, :]), axis=1)
            m = int(w.min())
            best = m if best is None else min(best, m)
        return best

    def distance(self):
        return min_weight_excluding(self.C, self.B)


def validate_css(C1: LinearCode, C2: LinearCode) -> bool:
    """True iff dual(C2) <= C1 (the containment making (C1, C2) a valid pair)."""
    if C1.n != C2.n:
        raise LengthMismatch("codes of different length")
    if C2.Hmat.rows == 0:
        return True
    return bool(C1.contains_rows(C2.H).all())


def coset_generators(C1: LinearCode, C2: LinearCode, g1):
    """Paired coset generators from the invertible-matrix construction.

    ``g1`` must span a complement of dual(C2) inside C1.  Builds the n x n
    matrix A whose rows are (basis of dual(C2) | g1 | greedy standard-basis
    completion), inverts it, and reads the paired generators g2 off the
    columns of the inverse aligned with the g1 rows.  The trailing columns of
    the inverse (transposed) form a basis of dual(C1), which is returned as
    well.

    Returns ``(g2, basis_c1_perp)`` as numpy arrays.  Raises BadComplement if
    the assembled matrix is singular.
    """
    f = C1.field
    n = C1.n
    g1 = np.asarray(g1, dtype=np.int64)
    if g1.ndim == 1:
        g1 = g1[None, :]
    k = C1.dim + C2.dim - n
    if g1.shape != (k, n):
        raise BadComplement(f"g1 must be {k} x {n}")
    b2 = C2.H  # basis of dual(C2), n - k2 rows
    rows = [b2, g1]
    partial = MatGF(f, np.concatenate([r for r in rows if r.size], axis=0)
                    if any(r.size for r in rows) else np.zeros((0, n), dtype=f.dtype))
    if partial.rank != partial.rows:
        raise BadComplement("g1 does not complement dual(C2) inside C1")
    # greedy completion by standard basis vectors
    completion = []
    current = partial
    for i in range(n):
        if current.rows == n:
            break
        e = np.zeros(n, dtype=f.dtype)
        e[i] = 1
        if not current.span_contains(e):
            completion.append(e)
            current = current.stack(MatGF(f, e[None, :]))
    blocks = [b2, g1]
    if completion:
        blocks.append(np.stack(completion))
    A = MatGF(f, np.concatenate([b for b in blocks if b.size], axis=0))
    if A.rows != n:
        raise BadComplement("could not complete to an invertible matrix")
    Ainv = A.invert().a
    lo = n - C2.dim
    g2 = Ainv[:, lo: lo + k].T.copy()
    basis_c1_perp = Ainv[:, C1.dim:].T.copy()
    return g2, basis_c1_perp


@dataclass
class CssPair:
    """A CSS code pair with paired coset generators (see module docstring)."""

    C1: LinearCode
    C2: LinearCode
    g1: np.ndarray
    g2: np.ndarray
    basis_c1_perp: np.ndarray = dc_field(repr=False, default=None)

    def __post_init__(self):
        f = self.field
        self.g1 = as_codes(f, self.g1, "g1 entries")
        self.g2 = as_codes(f, self.g2, "g2 entries")
        if not validate_css(self.C1, self.C2):
            raise NotOrthogonal("dual(C2) is not contained in C1")
        k = self.k
        pairing = f.matmul(self.g1, self.g2.T)
        if not np.array_equal(pairing, np.eye(k, dtype=np.int64)):
            raise BadComplement("generator pairing is not the identity")
        # C1 = dual(C2) + span(g1)
        m1 = MatGF(f, np.concatenate([self.C2.H, self.g1], axis=0)) \
            if self.C2.H.size or self.g1.size else MatGF.zeros(f, 0, self.n)
        if not m1.same_row_space(self.C1.Gmat):
            raise BadComplement("C1 != dual(C2) + span(g1)")
        # C2 = dual(C1) + span(g2)
        m2 = MatGF(f, np.concatenate([self.C1.H, self.g2], axis=0)) \
            if self.C1.H.size or self.g2.size else MatGF.zeros(f, 0, self.n)
        if not m2.same_row_space(self.C2.Gmat):
            raise BadComplement("C2 != dual(C1) + span(g2)")

    @property
    def field(self):
        return self.C1.field

    @property
    def n(self):
        return self.C1.n

    @property
    def k1(self):
        return self.C1.dim

    @property
    def k2(self):
        return self.C2.dim

    @property
    def k(self):
        return self.k1 + self.k2 - self.n

    @classmethod
    def build(cls, C1: LinearCode, C2: LinearCode, g1=None):
        """Construct a pair, choosing g1 greedily from C1's generators if needed."""
        if not validate_css(C1, C2):
            raise NotOrthogonal("dual(C2) is not contained in C1")
        f = C1.field
        n = C1.n
        k = C1.dim + C2.dim - n
        if g1 is None:
            span = MatGF(f, C2.H) if C2.H.size else MatGF.zeros(f, 0, n)
            chosen = []
            for row in C1.G:
                if len(chosen) == k:
                    break
                if not span.span_contains(row):
                    chosen.append(row)
                    span = span.stack(MatGF(f, row[None, :]))
            if len(chosen) != k:
                raise BadComplement("could not pick a complement basis from C1")
            g1 = np.stack(chosen) if chosen else np.zeros((0, n), dtype=f.dtype)
        g2, basis_c1_perp = coset_generators(C1, C2, g1)
        return cls(C1, C2, g1, g2, basis_c1_perp)

    def __repr__(self):
        return f"CssPair[[{self.n},{self.k}]] over GF({self.field.q})"


def min_weight_excluding(C: LinearCode, B: LinearCode, cap: int = ENUM_CAP) -> int:
    """w(C \\ B): minimum Hamming weight over codewords of C outside B.

    This equals the distance of the quotient code C/B.  Enumerates all of C;
    raises TooLarge above the cap and Degenerate when C = B.
    """
    f = C.field
    if C.n != B.n:
        raise LengthMismatch("codes of different length")
    if not B.is_subcode(C):
        raise NotOrthogonal("B must be a subcode of C")
    if B.dim == C.dim:
        raise Degenerate("C equals B; nothing to minimize over")
    if f.q ** C.dim > cap:
        raise TooLarge(f"enumeration of q^{C.dim} codewords exceeds cap")
    best = None
    for chunk in enumerate_span(f, C.G):
        in_b = B.Gmat.span_contains_rows(chunk) if B.dim else \
            ~chunk.any(axis=1)
        outside = chunk[~in_b]
        if outside.size:
            w = np.count_nonzero(outside, axis=1).min()
            best = int(w) if best is None else min(best, int(w))
    return best


def css_min_distance(pair: CssPair, cap: int = ENUM_CAP) -> int:
    """min of the two quotient distances d_{dual C2}(C1) and d_{dual C1}(C2)."""
    d1 = min_weight_excluding(pair.C1, pair.C2.dual(), cap)
    d2 = min_weight_excluding(pair.C2, pair.C1.dual(), cap)
    return min(d1, d2)


class CosetLeaderTable:
    """Minimum-weight coset leaders for every syndrome of a code.

    Leaders minimize plain Hamming weight; ties are broken by the
    lexicographically smallest coordinate vector, making the table
    deterministic.  All errors of weight below half the relevant quotient
    distance are decoded correctly modulo the subcode.
    """

    def __init__(self, C: LinearCode, B: LinearCode | None = None,
                 cap: int = TABLE_CAP):
        f = C.field
        n = C.n
        H = C.H
        m = H.shape[0]
        size = f.q ** m
        if size > cap:
            raise TooLarge(f"syndrome table of size {size} exceeds cap")
        if B is not None and not B.is_subcode(C):
            raise NotOrthogonal("B must be a subcode of C")
        self.field = f
        self.n = n
        self.m = m
        self.qpows = f.q ** np.arange(m, dtype=np.int64)
        leaders = np.zeros((size, n), dtype=f.dtype)
        weights = np.full(size, -1, dtype=np.int64)
        weights[0] = 0
        assigned = 1
        nonzero = list(range(1, f.q))
        for w in range(1, n + 1):
            if assigned == size:
                break
            for support in itertools.combinations(range(n), w):
                cols = H[:, support]  # (m, w)
                for values in itertools.product(nonzero, repeat=w):
                    synd = f.add_reduce(
                        f.mul(np.asarray(values, dtype=np.int64)[:, None], cols.T),
                        axis=0)
                    s = int((synd * self.qpows).sum())
                    if weights[s] == -1:
                        weights[s] = w
                        vec = np.zeros(n, dtype=f.dtype)
                        vec[list(support)] = values
                        leaders[s] = vec
                        assigned += 1
                    elif weights[s] == w:
                        vec = np.zeros(n, dtype=f.dtype)
                        vec[list(support)] = values
                        if tuple(vec) < tuple(leaders[s]):
                            leaders[s] = vec
            if assigned == size:
                break
        self.leaders = leaders
        self.weights = weights

    def pack(self, syndrome):
        """Table index of each syndrome along the last axis (int64)."""
        syndrome = np.asarray(syndrome)
        if syndrome.shape[-1:] != (self.m,):
            raise DomainError(f"syndrome must have length {self.m}")
        syndrome = as_codes(self.field, syndrome, "syndrome entries")
        return (syndrome * self.qpows).sum(axis=-1)

    def leader(self, syndrome):
        return self.leaders[int(self.pack(syndrome))]


def bvector_pair(field, b1, b2) -> CssPair:
    """The [[n, n-2, 2]]-type pair whose duals are spanned by single vectors.

    ``b1`` and ``b2`` must have all-nonzero entries and be orthogonal; the
    result has dual(C1) = span(b1) and dual(C2) = span(b2).
    """
    b1 = np.asarray(b1, dtype=np.int64).reshape(-1)
    b2 = np.asarray(b2, dtype=np.int64).reshape(-1)
    if b1.shape != b2.shape:
        raise LengthMismatch("b1 and b2 have different lengths")
    if (b1 == 0).any() or (b2 == 0).any():
        raise ZeroEntry("b vectors must have all-nonzero entries")
    if field.dot(b1, b2) != 0:
        raise NotOrthogonal("b1 and b2 must be orthogonal")
    C1 = LinearCode.from_parity_check(field, b1[None, :])
    C2 = LinearCode.from_parity_check(field, b2[None, :])
    return CssPair.build(C1, C2)


def random_css_pair(rng, field, n, k):
    """A uniformly-random-flavored CSS pair of length n with k logical dims.

    Test/CLI helper: samples a random full-rank C1, a random subspace of it
    for dual(C2), and builds the paired generators.
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    for _ in range(1000):
        k1 = int(rng.integers(k, n + 1))
        k2 = n + k - k1
        if not 0 <= k2 <= n:
            continue
        G1 = rng.integers(0, field.q, size=(k1, n))
        m1 = MatGF(field, G1)
        if m1.rank != k1:
            continue
        C1 = LinearCode(field, m1.rref()[0].a[:k1])
        # dual(C2): a (k1 - k)-dim subspace of C1
        r = k1 - k
        coeff = rng.integers(0, field.q, size=(r, k1))
        B = field.matmul(np.asarray(coeff, dtype=np.int64), C1.G)
        if r and MatGF(field, B).rank != r:
            continue
        C2 = LinearCode.from_parity_check(field, B) if r else \
            LinearCode.full_space(field, n)
        try:
            return CssPair.build(C1, C2)
        except BadComplement:
            continue
    raise RuntimeError("failed to sample a CSS pair")
