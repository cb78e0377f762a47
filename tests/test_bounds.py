"""Rational bound calculators, specialization identities, curve emission."""

import math
import time
from fractions import Fraction

import pytest

from cssconcat.bounds import (
    Q_CAP,
    TMAX_CAP,
    BoundCurve,
    bound_clx,
    bound_enlarged,
    bound_flx,
    bound_general,
    bound_main,
    emit_csv,
    envelope_rt,
    gamma_k,
    gv_curves,
    rate_floor,
)
from cssconcat.errors import BelowRateFloor, DomainError, TooLarge


def test_caps_raise_too_large_at_once():
    """Past bounds.Q_CAP for q, or bounds.TMAX_CAP for the exponent t of
    q^t (k/2 in gamma_k), every bound raises TooLarge before it forms a
    power of q or tests q by trial division: bound_main at t = 10^6 once
    took 10 s, and the prime-power test of a prime near 10^14 0.75 s.  The
    largest admitted values still give exact values."""
    mersenne = 2 ** 61 - 1  # a prime
    calls = [lambda: bound_main(10 ** 7, 3, 0), lambda: bound_main(TMAX_CAP + 1, 3, 0),
             lambda: bound_clx(3 * 10 ** 6, 3, 0), lambda: bound_clx(TMAX_CAP + 1, 3, 0),
             lambda: bound_general(10 ** 7, 10 ** 7, 1, 1, 3, 0),
             lambda: bound_general(2 * TMAX_CAP + 1, 2 * TMAX_CAP + 1, 1, 1, 3, 0),
             lambda: gamma_k(3, 10 ** 7), lambda: envelope_rt(4, [0], [2, 10 ** 7]),
             lambda: envelope_rt(4, [0], range(2, TMAX_CAP + 2)),
             lambda: bound_flx(Q_CAP + 1, 0), lambda: bound_flx(mersenne, 0),
             lambda: envelope_rt(mersenne, [0], [2]),
             lambda: bound_enlarged(mersenne, 4, 2, 2, 0, Fraction(1, 2))]
    start = time.perf_counter()
    for call in calls:
        with pytest.raises(TooLarge):
            call()
    assert time.perf_counter() - start < 1
    t = TMAX_CAP
    g = Fraction(1, 3 ** t - 1)
    assert bound_main(t, 3, 0) == Fraction(1, t + 1) * (Fraction(1, 2) - g)
    assert bound_clx(t, 3, 0) == Fraction(2, 3 * (2 * t + 1)) * (1 - 2 * g)
    assert gamma_k(3, 2 * t) == g
    assert bound_general(2 * t, 2 * t, 1, 1, 3, 0) == Fraction(1, 4 * t) * (1 - 2 * g)
    assert envelope_rt(3, [0], [t]).raw == [Fraction(t, t + 1) * (1 - 2 * g)]
    assert bound_flx(Q_CAP, 0) == Fraction(1, 2) * (1 - Fraction(2, 2 ** 16 - 1))
    prime = 4294967291  # the largest prime below Q_CAP
    assert envelope_rt(prime, [0], [2]).raw == [Fraction(2, 3) * (1 - Fraction(2, prime ** 2 - 1))]
    assert bound_enlarged(prime, 4, 2, 2, 0, 1) == -Fraction(2 * (prime + 1), 4 * (2 * prime + 1))


def test_gamma_k():
    assert gamma_k(2, 2) == 1
    assert gamma_k(2, 4) == Fraction(1, 3)
    assert gamma_k(4, 1) == 1
    assert gamma_k(16, 3) == Fraction(1, 63)
    with pytest.raises(DomainError):
        gamma_k(2, 3)


def test_golden_fractions():
    assert bound_main(3, 2, 0) == Fraction(5, 56)
    assert bound_clx(3, 2, 0) == Fraction(10, 147)
    assert bound_flx(361, 0) == Fraction(4, 9)


def test_specialization_identities():
    """The named bounds are exact specializations of the general form."""
    rates = [Fraction(0), Fraction(1, 100), Fraction(1, 10), Fraction(1, 4)]
    for q in (2, 3, 4):
        for t in (1, 2, 3, 4):
            if q ** t < 3:
                continue
            for R in rates:
                # main: inner [n,k] = [2t+2, 2t] with distances d1 = d2 = 2
                assert bound_main(t, q, R) == bound_general(
                    2 * t + 2, 2 * t, 2, 2, q, R)
                # clx: inner [2t+1, 2t] with distances d1 = 1, d2 = 2
                assert bound_clx(t, q, R) == bound_general(
                    2 * t + 1, 2 * t, 1, 2, q, R)
    for q in (4, 9, 16, 361):
        for R in rates:
            assert bound_flx(q, R) == bound_general(1, 1, 1, 1, q, R)


def test_general_validation():
    with pytest.raises(DomainError):
        bound_general(4, 5, 1, 1, 2, 0)
    with pytest.raises(DomainError):
        bound_general(4, 2, 1, 1, 6, 0)  # 6 not a prime power
    with pytest.raises(DomainError):
        bound_general(4, 2, 1, 1, 2, 2)  # rate out of range


def test_named_bounds_reject_rates_outside_unit_interval():
    """Every named bound is bound_general at its inner code, so each rejects
    a rate outside [0, 1] as bound_general does; bound_enlarged does too
    (main, clx, flx and enlarged used to return values there, and enlarged
    a negative rate whenever gamma_hat > 1/2 puts its floor below 0)."""
    gh = Fraction(1, 3)
    calls = {"main": lambda R: bound_main(3, 2, R), "clx": lambda R: bound_clx(3, 2, R),
             "flx": lambda R: bound_flx(9, R),
             "general": lambda R: bound_general(8, 6, 2, 2, 2, R),
             "enlarged": lambda R: bound_enlarged(4, 4, 2, 2, gh, R)}
    for name, call in calls.items():
        for R in (Fraction(-1, 2), Fraction(-1, 10 ** 9), Fraction(1) + Fraction(1, 10 ** 9),
                  Fraction(3, 2), 2):
            with pytest.raises(DomainError, match="rate must lie in"):
                call(R)
        assert isinstance(call(1), Fraction), name
        if name != "enlarged":  # 0 is below the enlarged floor
            assert isinstance(call(0), Fraction), name
    assert rate_floor(4, 4, 2, Fraction(3, 4)) < 0
    with pytest.raises(DomainError):
        bound_enlarged(4, 4, 2, 2, Fraction(3, 4), Fraction(-1, 100))
    assert bound_enlarged(4, 4, 2, 2, Fraction(3, 4), 0) == Fraction(10, 36) * Fraction(-1, 2)


def test_named_bounds_keep_their_checks():
    """main needs t >= 1 and q^t >= 3, clx t >= 1, and every family a
    prime-power q (flx a square one)."""
    for t, q in ((0, 2), (-1, 4), (1, 2), (2, 6), (1, 1)):
        with pytest.raises(DomainError):
            bound_main(t, q, 0)
    for t, q in ((0, 2), (-2, 3), (2, 6), (1, 0)):
        with pytest.raises(DomainError):
            bound_clx(t, q, 0)
    assert bound_clx(1, 2, 0) == Fraction(-2, 9)
    for q in (0, 1, 2, 6, 8, 36):
        with pytest.raises(DomainError):
            bound_flx(q, 0)


def test_envelope_dominates_single_t():
    deltas = [Fraction(i, 200) for i in range(31)]  # [0, 0.15]
    env = envelope_rt(2, deltas, ts=range(1, 9))
    for d, v in zip(deltas, env.raw):
        # each fixed t is dominated
        for t in range(1, 9):
            single = Fraction(t, t + 1) * (1 - Fraction(2, 2 ** t - 1)) - 2 * t * d
            assert v >= single
        assert v == max(Fraction(t, t + 1) * (1 - Fraction(2, 2 ** t - 1)) - 2 * t * d
                        for t in range(1, 9))
    # at delta = 0 large t strictly beats t = 1 (which gives 0 for q=2)
    assert env.raw[0] > 0


def test_envelope_rejects_bad_q_and_empty_t_range():
    """q must be a prime power, as for bound_main and bound_clx (q = 1 used to
    divide by q^t - 1 = 0, q = 0 and 6 gave a curve), and the t range must be
    nonempty with t >= 1 (an empty one made max() fail)."""
    deltas = [Fraction(0), Fraction(1, 10)]
    for q in (0, 1, 6, 12):
        with pytest.raises(DomainError, match="prime power"):
            envelope_rt(q, deltas, range(2, 5))
    for ts in (range(2, 2), range(2, -2), [], [0, 1], [-1]):
        with pytest.raises(DomainError, match="t >= 1"):
            envelope_rt(2, deltas, ts)
    assert envelope_rt(2, deltas, [1]).raw == [Fraction(-1, 2), Fraction(-7, 10)]


def test_rate_floor_and_enlarged():
    gh = Fraction(1, 3)  # hat-gamma for q=4 towers with gamma = 1/4 analogue
    fl = rate_floor(4, 4, 2, gh)
    assert fl == Fraction(2, 2 * 5 * 4) * (1 - Fraction(2, 3))
    with pytest.raises(BelowRateFloor):
        bound_enlarged(4, 4, 2, 2, gh, fl - Fraction(1, 10 ** 6))
    v = bound_enlarged(4, 4, 2, 2, gh, fl)
    assert isinstance(v, Fraction)
    assert v == Fraction(5 * 2, 9 * 4) * (1 - 2 * gh - 2 * fl)


def test_negative_gamma_hat_rejected():
    """gamma_hat < 0 raises DomainError in rate_floor and bound_enlarged, at
    every rate; gamma_hat = 0 is accepted."""
    for gh in (-1, Fraction(-1, 10 ** 9)):
        with pytest.raises(DomainError, match="gamma_hat"):
            rate_floor(4, 4, 2, gh)
        for R in (0, Fraction(1, 2), 1):
            with pytest.raises(DomainError, match="gamma_hat"):
                bound_enlarged(4, 4, 2, 2, gh, R)
    assert rate_floor(4, 4, 2, 0) == Fraction(1, 20)
    assert bound_enlarged(4, 4, 2, 2, 0, 1) == Fraction(5, 18) * (1 - 2)


def test_enlarged_specialization_two_paths():
    """q=4, d=2, n=k+2: the enlarged bound agrees with its reduced form
    (10/(9(k+2))) (1 - 2 gamma_hat - ((k+2)/k) R) for k in {2, 4}."""
    for k in (2, 4):
        n = k + 2
        gh = Fraction(1, 7)
        for R in (Fraction(1, 10), Fraction(1, 5)):
            direct = bound_enlarged(4, n, k, 2, gh, R)
            reduced = Fraction(10, 9 * n) * (1 - 2 * gh - Fraction(n, k) * R)
            assert direct == reduced


def test_gv_values():
    c = gv_curves("css_binary", [0.0, 0.11])
    assert c.raw[0] == pytest.approx(1.0)
    # 1 - 2*H2(0.11) evaluated exactly
    assert c.raw[1] == pytest.approx(0.00016849, abs=1e-6)
    qb = gv_curves("quantum_binary", [0.0, 0.1892])
    assert qb.raw[1] == pytest.approx(0.0, abs=1e-3)  # near the known root
    qq = gv_curves("quantum_quaternary", [0.05])
    assert 0.0 < qq.raw[0] < 1.0
    with pytest.raises(DomainError):
        gv_curves("nope", [0.1])


def test_gv_css_binary_does_not_mirror_past_half():
    """1 - 2 h(delta) takes h(min(delta, 1/2)): on [0, 1/2] the values are
    those of the formula, and past 1/2 the curve stays at -1 (clamped to 0),
    where the entropy's mirror image rose again to 1 at delta = 1."""
    def h2(x):
        return 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    low = [0.0, 0.05, 0.11, 0.25, 0.4999, 0.5]
    c = gv_curves("css_binary", low)
    assert c.raw == pytest.approx([1.0 - 2.0 * h2(d) for d in low], abs=1e-12)
    high = [0.5001, 0.6, 0.9, 0.99, 1.0]
    c = gv_curves("css_binary", high)
    assert c.raw == [-1.0] * len(high) and c.clamped == [0.0] * len(high)


def test_curve_validation_and_clamp():
    with pytest.raises(DomainError):
        BoundCurve("x", [0.2, 0.1], [0.0, 0.0])
    with pytest.raises(DomainError):
        BoundCurve("x", [0.1, 0.2], [0.0])
    c = BoundCurve("x", [0.0, 0.1], [Fraction(-1, 2), Fraction(3, 2)])
    assert c.clamped == [0.0, 1.0]
    assert c.raw == [Fraction(-1, 2), Fraction(3, 2)]  # raw untouched


def test_monotone_in_rate():
    Rs = [Fraction(i, 50) for i in range(20)]
    for t, q in ((1, 4), (2, 2), (3, 2)):
        vals = [bound_main(t, q, R) for R in Rs]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_emit_csv(tmp_path):
    deltas = [i / 100 for i in range(5)]
    curves = [gv_curves("css_binary", deltas),
              envelope_rt(2, [Fraction(i, 100) for i in range(5)], range(1, 6))]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    emit_csv(curves, p1)
    emit_csv(curves, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()  # byte-identical re-emission
    lines = b1.decode().splitlines()
    assert lines[0] == "x,gv_css_binary,envelope_q2"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 1.0
    with pytest.raises(DomainError):
        emit_csv([], p1)
    with pytest.raises(DomainError):
        emit_csv([curves[0], gv_curves("css_binary", [0.0, 0.5])], p1)
