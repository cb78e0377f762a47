"""Closed-form asymptotic rate/distance bound calculators and curve emission.

The algebraic bounds are affine in the rate argument and are evaluated in
exact rational arithmetic (`fractions.Fraction`); entropy-based curves use
floating point.  The named concatenated bounds are `bound_general` at their
inner codes.  Rates outside [0, 1] raise DomainError.  Raw (unclamped)
values are returned by the point evaluators so roots can be located
exactly; clamping to [0, 1] happens only when curves are materialized for
emission.  A q above Q_CAP, or an exponent t of q^t (k/2 in gamma_k) above
TMAX_CAP, raises TooLarge before any trial division or power of q."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .errors import BelowRateFloor, DomainError, TooLarge
from .galois import _prime_factors

Q_CAP = 1 << 32  # largest q: its trial division, up to 2^16, takes milliseconds
TMAX_CAP = 1000  # largest exponent t of an exact power q^t


def _frac(x):
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 12)
    return Fraction(x)


@cache  # a curve tests its one q at every grid point
def _is_prime_power(n: int) -> bool:
    return n >= 2 and len(_prime_factors(n)) == 1


def _check_caps(q, t=0):
    """TooLarge past the caps on q and on the exponent t of q^t."""
    if q > Q_CAP:
        raise TooLarge(f"q = {q} exceeds the cap {Q_CAP}")
    if t > TMAX_CAP:
        raise TooLarge(f"exponent {t} of q exceeds the cap {TMAX_CAP}")


def gamma_k(q: int, k: int) -> Fraction:
    """1 / (q^(k/2) - 1); defined when q^k is a perfect square."""
    _check_caps(q, Fraction(k, 2))
    root = math.isqrt(q ** k)
    if root * root != q ** k:
        raise DomainError("q^k must be a perfect square")
    return Fraction(1, root - 1)


def bound_general(n: int, k: int, d1: int, d2: int, q: int, R) -> Fraction:
    """Asymptotic relative-distance bound of a concatenated family.

    (d1*d2 / (n*(d1+d2))) * (1 - 2*gamma - (n/k)*R) with
    gamma = 1/(q^(k/2)-1).  Raw (unclamped) rational value.
    """
    if not (n >= 1 and 1 <= k <= n and d1 >= 1 and d2 >= 1):
        raise DomainError("invalid inner parameters")
    _check_caps(q, Fraction(k, 2))
    if not _is_prime_power(q):
        raise DomainError("q must be a prime power")
    R = _frac(R)
    if not 0 <= R <= 1:
        raise DomainError("rate must lie in [0, 1]")
    g = gamma_k(q, k)
    return Fraction(d1 * d2, n * (d1 + d2)) * (1 - 2 * g - Fraction(n, k) * R)


def bound_clx(t: int, q: int, R) -> Fraction:
    """(2/(3(2t+1))) * (1 - 2/(q^t - 1) - ((2t+1)/(2t)) R): the general
    bound at inner [2t+1, 2t] with d1 = 1, d2 = 2."""
    if t < 1:
        raise DomainError("need t >= 1")
    return bound_general(2 * t + 1, 2 * t, 1, 2, q, R)


def bound_main(t: int, q: int, R) -> Fraction:
    """(1/(t+1)) * (1/2 - 1/(q^t - 1) - ((t+1)/(2t)) R): the general bound
    at inner [2t+2, 2t] with d1 = d2 = 2."""
    _check_caps(q, t)
    if t < 1 or q ** t < 3:
        raise DomainError("need t >= 1 and q^t >= 3")
    return bound_general(2 * t + 2, 2 * t, 2, 2, q, R)


def bound_flx(q: int, R) -> Fraction:
    """(1/2) * (1 - 2/(sqrt(q) - 1) - R): the general bound at inner
    [1, 1] with d1 = d2 = 1, so q must be a square prime power."""
    return bound_general(1, 1, 1, 1, q, R)


def envelope_rt(q: int, deltas, ts) -> "BoundCurve":
    """Pointwise-max over t of R_t(delta) = (t/(t+1))(1-2/(q^t-1)) - 2t*delta,
    over a nonempty range ``ts`` of t >= 1."""
    ts = list(ts)
    _check_caps(q, max(ts, default=0))
    if not _is_prime_power(q):
        raise DomainError("q must be a prime power")
    if not ts or min(ts) < 1:
        raise DomainError("need a nonempty range of t >= 1")
    lines = [(Fraction(t, t + 1) * (1 - Fraction(2, q ** t - 1)), 2 * t) for t in ts]
    values = [max(head - slope * _frac(d) for head, slope in lines) for d in deltas]
    return BoundCurve(name=f"envelope_q{q}", grid=list(deltas), raw=values)


def rate_floor(q: int, n: int, k: int, gamma_hat) -> Fraction:
    """Smallest outer rate the enlarged-family bound is stated for.

    Raises DomainError for a negative ``gamma_hat``."""
    gh = _frac(gamma_hat)
    if gh < 0:
        raise DomainError("gamma_hat must be nonnegative")
    return Fraction(k, 2 * (q + 1) * n) * (1 - 2 * gh)


def bound_enlarged(q: int, n: int, k: int, d: int, gamma_hat, R_o) -> Fraction:
    """((q+1)d / ((2q+1)n)) * (1 - 2*gamma_hat - (n/k) R_o), raw value.

    Raises DomainError when R_o lies outside [0, 1] or gamma_hat is
    negative, and BelowRateFloor when R_o is below the stated validity
    floor.
    """
    _check_caps(q)
    if not (n >= 1 and 1 <= k <= n and d >= 1 and _is_prime_power(q)):
        raise DomainError("invalid parameters")
    R_o = _frac(R_o)
    if not 0 <= R_o <= 1:
        raise DomainError("rate must lie in [0, 1]")
    gh = _frac(gamma_hat)
    floor = rate_floor(q, n, k, gamma_hat)
    if R_o < floor:
        raise BelowRateFloor(f"outer rate {R_o} below floor {floor}")
    return Fraction((q + 1) * d, (2 * q + 1) * n) * (1 - 2 * gh - Fraction(n, k) * R_o)


def _h(x: float, base: int) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    lg = math.log(base)
    return (-x * math.log(x) - (1 - x) * math.log(1 - x)) / lg


def gv_curves(kind: str, deltas) -> "BoundCurve":
    """Gilbert-Varshamov-style rate curves over a relative-distance grid."""
    vals = []
    for d in deltas:
        d = float(d)
        if kind == "css_binary":  # _h mirrors about 1/2: past it the curve is below 0
            v = 1.0 - 2.0 * _h(min(d, 0.5), 2)
        elif kind == "quantum_binary":
            v = 1.0 - _h(d, 2) - d * math.log2(3)
        elif kind == "quantum_quaternary":
            v = 1.0 - _h(d, 4) - d * (math.log(15) / math.log(4))
        else:
            raise DomainError(f"unknown curve kind {kind!r}")
        vals.append(v)
    return BoundCurve(name=f"gv_{kind}", grid=[float(d) for d in deltas], raw=vals)


@dataclass
class BoundCurve:
    """A named curve sampled on a strictly increasing grid."""

    name: str
    grid: list
    raw: list

    def __post_init__(self):
        if any(float(b) <= float(a) for a, b in zip(self.grid, self.grid[1:])):
            raise DomainError("grid must be strictly increasing")
        if len(self.grid) != len(self.raw):
            raise DomainError("grid/value length mismatch")

    @property
    def clamped(self):
        return [min(1.0, max(0.0, float(v))) for v in self.raw]


def emit_csv(curves, path) -> None:
    """Write grid + one clamped column per curve; deterministic formatting."""
    if not curves:
        raise DomainError("no curves to emit")
    grid = curves[0].grid
    for c in curves[1:]:
        if [float(x) for x in c.grid] != [float(x) for x in grid]:
            raise DomainError("curves must share a grid")
    lines = ["x," + ",".join(c.name for c in curves)]
    cols = [c.clamped for c in curves]
    for i, x in enumerate(grid):
        lines.append(f"{float(x):.10g}," + ",".join(f"{col[i]:.10g}" for col in cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
