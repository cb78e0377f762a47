"""Linear codes, quotient codes, CSS pairs and paired coset generators.

The central object is :class:`CssPair`: two linear codes (C1, C2) of common
length n with the containment dual(C2) <= C1, together with k = k1 + k2 - n
paired coset generators g1, g2 satisfying

    C1 = dual(C2) + span(g1),   C2 = dual(C1) + span(g2),   <g1_i, g2_j> = delta_ij.

Row profile.  The generators come from one elimination, the rref of the
n x (m + r + n) matrix [C2.H^T | X^T | I_n], where X is the supplied g1 or,
when none is given, C1.G.  The pivot columns of an rref are the
lexicographically first independent columns, so its pivots are all m rows
of C2.H (a basis of dual(C2)), then the first k rows of X independent modulo
dual(C2) -- the chosen g1 -- and then the standard basis vectors that
complete them to a basis of GF(q)^n.  Those n pivot columns are A^T for the
invertible A = [C2.H; g1; completion], and the rref holds E A^T = I, so its
last n columns are E = (A^-1)^T: the rows of E paired with g1 are g2, and
the rows paired with the completion a basis of dual(C1).

Product certificate.  A pair is checked by one product, with no
elimination:

    [C2.H; g1] [C1.H; g2]^T = [[0, 0], [0, I_k]],

that is C2.H C1.H^T = 0, C2.H g2^T = 0, g1 C1.H^T = 0 and g1 g2^T = I_k.
The first block is the containment dual(C2) <= C1; the next two put g2 in
C2 and g1 in C1.  The rest follows by counting dimensions.  If a
combination c g1 lies in dual(C2), pairing it with g2 (orthogonal to
dual(C2)) gives c = 0, so g1 is independent modulo dual(C2), and dual(C2) +
span(g1) has dimension (n - k2) + k = k1 inside C1 of dimension k1:
C1 = dual(C2) + span(g1).  By the same argument, with dual(C1) <= C2 the
dual of the containment, C2 = dual(C1) + span(g2).  A nonzero C2.H C1.H^T
raises NotOrthogonal, any other failing block BadComplement.

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
from .matrix import MatGF, as_codes, enumerate_span, pack

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
        # a null-space basis is the identity on its free columns: full rank
        code = cls._full_rank(field, mat.null_space())
        code._Hmat = mat
        return code

    @classmethod
    def full_space(cls, field, n):
        return cls._full_rank(field, MatGF.identity(field, n))

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
        """The dual code, generated by the parity-check rows, or by the
        nonzero rows of their rref when a supplied parity check repeats
        rows."""
        H = self.Hmat
        if H.rank != H.rows:
            R, _, rank = H.rref()
            H = MatGF(self.field, R.a[:rank])
        d = LinearCode._full_rank(self.field, H)
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

    def distance(self):
        return min_weight_excluding(self.C, self.B)


def validate_css(C1: LinearCode, C2: LinearCode) -> bool:
    """True iff dual(C2) <= C1 (the containment making (C1, C2) a valid pair),
    that is, iff C2.H C1.H^T = 0."""
    if C1.n != C2.n:
        raise LengthMismatch("codes of different length")
    return not C1.field.matmul(C2.H, C1.H.T).any()


def _pairing(pair):
    """``(contained, paired)`` from the one product P = [C2.H; g1].[C1.H; g2]^T
    of the module docstring: whether its block C2.H.C1.H^T vanishes, and
    whether P = [[0, 0], [0, I]]."""
    m, r = len(pair.C2.H), len(pair.C1.H)
    P = pair.field.matmul(np.concatenate([pair.C2.H, pair.g1]),
                          np.concatenate([pair.C1.H, pair.g2]).T)
    want = np.zeros_like(P)
    want[m:, r:] = np.eye(len(pair.g1), len(pair.g2), dtype=P.dtype)
    return not P[:m, :r].any(), np.array_equal(P, want)


def _row_profile(C1: LinearCode, C2: LinearCode, g1=None):
    """``(g1, g2, basis_c1_perp)`` from the rref of [C2.H^T | X^T | I_n],
    X = ``g1`` or C1.G (see the module docstring).

    Raises BadComplement if ``g1`` is not k x n, or if C2.H and the first
    rows of X independent modulo it are not n - k2 + k independent rows.
    """
    f, n = C1.field, C1.n
    k = C1.dim + C2.dim - n
    if g1 is None:
        X = C1.G
    else:
        X = as_codes(f, g1, "g1 entries")
        if X.ndim == 1:
            X = X[None, :]
        if X.shape != (k, n):
            raise BadComplement(f"g1 must be {k} x {n}")
    B = C2.H
    m, r = len(B), len(X)
    M = np.concatenate([B.T, X.T, np.eye(n, dtype=f.dtype)], axis=1)
    R, pivots, _ = MatGF(f, M).rref()
    pivots = np.asarray(pivots, dtype=np.intp)
    # the pivots left of I_n number rank [C2.H; X], at most (n - k2) + k
    # (for X = C1.G by the containment): m + k exactly when the m rows of
    # C2.H are independent and k rows of X independent modulo them
    if np.count_nonzero(pivots < m + r) != m + k:
        raise BadComplement("g1 does not complement dual(C2) inside C1")
    E = R.a[:, m + r:]
    return X[pivots[m:m + k] - m], E[m:m + k].copy(), E[m + k:].copy()


def coset_generators(C1: LinearCode, C2: LinearCode, g1):
    """``(g2, basis_c1_perp)`` for a ``g1`` spanning a complement of dual(C2)
    inside C1, by the row profile of the module docstring: g2 pairs with g1
    and the rows of ``basis_c1_perp`` span dual(C1).  Raises BadComplement if
    ``g1`` is not k x n or [C2.H; g1] is rank deficient."""
    _, g2, basis_c1_perp = _row_profile(C1, C2, g1)
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
        self.g1 = as_codes(self.field, self.g1, "g1 entries")
        self.g2 = as_codes(self.field, self.g2, "g2 entries")
        if self.C1.n != self.C2.n:
            raise LengthMismatch("codes of different length")
        k, n = self.k, self.n
        if self.g1.shape != (k, n) or self.g2.shape != (k, n):
            if not validate_css(self.C1, self.C2):
                raise NotOrthogonal("dual(C2) is not contained in C1")
            raise BadComplement(f"g1 and g2 must be {k} x {n}")
        # the product certificate of the module docstring
        contained, paired = _pairing(self)
        if not contained:
            raise NotOrthogonal("dual(C2) is not contained in C1")
        if not paired:
            raise BadComplement("g1 is not in C1, g2 is not in C2, or "
                                "g1.g2^T is not the identity")

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
        """Construct a pair by the row profile of the module docstring; when
        ``g1`` is omitted it is the first k rows of C1.G independent modulo
        dual(C2).  The result is checked by the product certificate."""
        if not validate_css(C1, C2):
            raise NotOrthogonal("dual(C2) is not contained in C1")
        g1, g2, basis_c1_perp = _row_profile(C1, C2, g1)
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

    def __init__(self, C: LinearCode, cap: int = TABLE_CAP):
        f = C.field
        n = C.n
        H = C.H
        m = H.shape[0]
        size = f.q ** m
        if size > cap:
            raise TooLarge(f"syndrome table of size {size} exceeds cap")
        self.field = f
        self.n = n
        self.m = m
        leaders = np.zeros((size, n), dtype=f.dtype)
        weights = np.full(size, -1, dtype=np.int64)
        weights[0] = 0
        for w in range(1, n + 1):
            if (weights >= 0).all():
                break
            self._assign_weight(H, w, leaders, weights, cap)
        self.leaders = leaders
        self.weights = weights

    def _assign_weight(self, H, w, leaders, weights, cap):
        """Give every syndrome without a leader of lower weight its
        lexicographically smallest pattern of weight ``w``, if it has one:
        per chunk of supports (about ``cap`` entries), the candidates and the
        leaders of weight ``w`` found so far for their syndromes are sorted by
        syndrome, then lexicographically, and the first of each is kept."""
        f, n = self.field, self.n
        values = np.array(list(itertools.product(range(1, f.q), repeat=w)), dtype=f.dtype)
        step = max(1, cap // (len(values) * n))
        supports = itertools.combinations(range(n), w)
        while chunk := list(itertools.islice(supports, step)):
            chunk = np.array(chunk)
            pat = np.zeros((len(chunk), len(values), n), dtype=f.dtype)
            for i in range(w):
                pat[np.arange(len(chunk)), :, chunk[:, i]] = values[:, i]
            pat = pat.reshape(-1, n)
            s = self.pack(f.matmul(pat, H.T))
            ws = weights[s]
            keep = (ws < 0) | (ws == w)
            earlier = s[ws == w]
            pat = np.concatenate([pat[keep], leaders[earlier]])
            s = np.concatenate([s[keep], earlier])
            order = np.lexsort(tuple(pat[:, ::-1].T) + (s,))
            s, pat = s[order], pat[order]
            first = np.ones(len(s), dtype=bool)
            first[1:] = s[1:] != s[:-1]
            leaders[s[first]] = pat[first]
            weights[s[first]] = w

    def pack(self, syndrome):
        """Table index of each syndrome along the last axis (int64): its
        code, :func:`matrix.pack` base q."""
        syndrome = np.asarray(syndrome)
        if syndrome.shape[-1:] != (self.m,):
            raise DomainError(f"syndrome must have length {self.m}")
        return pack(as_codes(self.field, syndrome, "syndrome entries"), self.field.q)

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

    Test helper: samples a random full-rank C1, a random subspace of it for
    dual(C2), and builds the paired generators.
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
