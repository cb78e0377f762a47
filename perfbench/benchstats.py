"""Statistics and seed derivation shared by the benchmark scripts.

Pure Python, so the helpers can be tested without building the library.
"""

from __future__ import annotations

import hashlib
import math
import statistics

SEED_LIMIT = 1 << 64


def median(values):
    return statistics.median(values)


def percentile(values, q):
    """The q-th percentile (0..100), linear between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values):
    """First quartile, median and third quartile, as ``statistics.quantiles(n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def within_sigmas(failures, expected_rates, sigmas):
    """True iff a pooled binomial failure count is within ``sigmas`` standard
    deviations of its reference.

    ``expected_rates`` lists ``(trials, ref_failures, ref_trials)`` for each
    pooled group: ``trials`` were run here and the reference rate is
    ``ref_failures / ref_trials``.  The variance of the difference adds the
    reference's own sampling variance to the binomial variance of this run.
    A zero reference rate admits only a zero count.
    """
    expected = 0.0
    variance = 0.0
    for trials, ref_failures, ref_trials in expected_rates:
        p = ref_failures / ref_trials
        expected += trials * p
        variance += trials * p * (1 - p) * (1 + trials / ref_trials)
    if variance == 0.0:
        return failures == expected
    return abs(failures - expected) <= sigmas * math.sqrt(variance)


def check_seed(seed):
    """Raise ValueError unless ``seed`` is a workload seed in [0, 2**64)."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return seed


def trial_key(trial, seed):
    """The Philox key of trial ``trial`` in an MC run seeded with ``seed``.

    ``mc_error_rate`` keys trial i with ``(i << 64) + seed``, and
    ``sample_error(ch, n, key)`` draws from the key ``(0 << 64) + key``, so
    this key replays exactly trial i, as long as ``seed < 2**64``.
    """
    check_seed(seed)
    return (int(trial) << 64) + seed


def mc_seed(seed, side, call):
    """Seed of the ``call``-th MC call on ``side`` of a run seeded with ``seed``.

    Sides get unrelated streams: with identical seeds both sides of these
    symmetric workloads see the same errors, which would correlate the
    pooled failure count.
    """
    digest = hashlib.blake2b(f"{seed}:{side}:{call}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")
