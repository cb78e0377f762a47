"""Tests of the benchmark's statistics, seed handling and replay.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import os
import statistics
import subprocess
import sys

import numpy as np
import pytest

import benchstats as bs
import run

ROOT = os.path.dirname(run.HERE)
assert run.use_checkout(ROOT)

import pipeline  # noqa: E402  (needs the library on the path)
from cssconcat.channel_sim import AdditiveChannel, mc_error_rate, sample_error  # noqa: E402
from cssconcat.galois import Field  # noqa: E402


def test_median_and_quartiles_match_statistics():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert bs.median(xs) == 4.0
    assert bs.quartiles(xs) == tuple(statistics.quantiles(xs, n=4))
    q1, _, q3 = statistics.quantiles(xs, n=4)
    assert bs.spread(xs) == pytest.approx((q3 - q1) / 4.0)


def test_percentile_interpolates_between_ranks():
    xs = list(range(1, 101))  # 1..100
    assert bs.percentile(xs, 0) == 1
    assert bs.percentile(xs, 100) == 100
    assert bs.percentile(xs, 50) == pytest.approx(50.5)
    assert bs.percentile(xs, 99) == pytest.approx(99.01)
    assert bs.percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        bs.percentile([], 50)
    with pytest.raises(ValueError):
        bs.percentile(xs, 101)


def test_within_sigmas():
    # one group, reference rate 0.1 from a huge run: sigma = 30 at 10000 trials
    ref = [(10000, 10**8, 10**9)]
    assert bs.within_sigmas(1000, ref, 3)
    assert bs.within_sigmas(1089, ref, 3)
    assert not bs.within_sigmas(1091, ref, 3)
    assert not bs.within_sigmas(909, ref, 3)
    assert bs.within_sigmas(1119, ref, 4)
    assert not bs.within_sigmas(1121, ref, 4)
    # the reference's own variance widens the window: here sigma^2 = 900 * 2
    assert bs.within_sigmas(1120, [(10000, 1000, 10000)], 3)
    # groups pool expectations and variances
    assert bs.within_sigmas(1000, [(5000, 10**8, 10**9), (5000, 10**8, 10**9)], 3)
    # a zero reference rate admits only zero failures
    assert bs.within_sigmas(0, [(5000, 0, 20000), (5000, 0, 20000)], 4)
    assert not bs.within_sigmas(1, [(5000, 0, 20000), (5000, 0, 20000)], 4)


def test_check_seed_bounds():
    assert bs.check_seed(0) == 0
    assert bs.check_seed((1 << 64) - 1) == (1 << 64) - 1
    for bad in (-1, 1 << 64):
        with pytest.raises(ValueError):
            bs.check_seed(bad)


def test_trial_key_is_trial_substream():
    ch = AdditiveChannel.symmetric(Field(2), 0.2)
    seed = (1 << 64) - 5
    for i in (0, 1, 17):
        key = bs.trial_key(i, seed)
        assert key >> 64 == i and key & ((1 << 64) - 1) == seed
        u = np.random.Generator(np.random.Philox(key=(i << 64) + seed)).random(40)
        want = np.searchsorted(ch.cdf, u, side="right")
        assert np.array_equal(sample_error(ch, 40, key), want)
    with pytest.raises(ValueError):
        bs.trial_key(3, 1 << 64)


def test_mc_seed_is_deterministic_and_separates_sides():
    assert bs.mc_seed(7, 1, 0) == bs.mc_seed(7, 1, 0)
    seeds = {bs.mc_seed(7, side, call) for side in (1, 2) for call in range(50)}
    assert len(seeds) == 100
    assert all(0 <= s < 1 << 64 for s in seeds)


@pytest.fixture(scope="module")
def small():
    spec = {"q": 2, "n": 6, "N": 15, "K": 11, "p": 0.03, "block_length": 90,
            "logical_dims": 28, "setup_reps": 1, "mc_trials": 64,
            "replay_trials": 64, "cli_trials": 32, "reference": None}
    w = pipeline.Workload(name="small", **spec)
    return w, pipeline.build(w)


def test_replay_matches_mc_error_rate(small):
    w, built = small
    ch = pipeline.channel(w, built)
    for ctx in built.ctxs:
        seed = bs.mc_seed(3, ctx.side, 0)
        r = mc_error_rate(ctx, ch, 200, seed)
        c = pipeline.replay(ctx, ch, 200, seed, pipeline.Tracer())
        assert (c.failures, c.outer_decode_failures) == (r.failures, r.outer_decode_failures)
        assert c.bad_blocks / (200 * ctx.N) == r.inner_block_rate
        assert r.failures > 0 and c.needs_outer > 0


def test_build_rejects_wrong_dimensions(small):
    w, _ = small
    bad = pipeline.Workload(**{**w.__dict__, "logical_dims": 27})
    with pytest.raises(pipeline.GateFailed):
        pipeline.build(bad)


def test_cli_check_passes(small, tmp_path):
    w, built = small
    pipeline._cli_check(w, built, 5, str(tmp_path), pipeline.Tracer())


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_run_rejects_out_of_range_seed(seed):
    res = _run(ROOT, "--workload", "rs15-gf16", "--seed", seed, "--seconds", "1")
    assert res.returncode == 2
    assert "seed must lie in [0, 2**64)" in res.stderr
    assert res.stdout == ""


def test_run_fails_without_library_source(tmp_path):
    res = _run(tmp_path, "--workload", "rs15-gf16", "--seed", "1", "--seconds", "1")
    assert res.returncode == 2
    assert res.stdout == ""
