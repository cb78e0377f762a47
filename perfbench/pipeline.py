"""The benchmark's pipeline: construct, concatenate, decoder set-up, Monte-Carlo.

Every layer is driven from outside through the library's public functions;
the library itself is not instrumented.  ``measure`` is the untraced run that
gives the end-to-end metrics; ``trace`` is the separate traced run that gives
the per-layer metrics and replays MC trials stage by stage.
"""

from __future__ import annotations

import io
import os
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from cssconcat import cli, fileio
from cssconcat.channel_sim import AdditiveChannel, mc_error_rate, sample_error
from cssconcat.codes import CosetLeaderTable, bvector_pair
from cssconcat.concat import build_parity_check, concatenate, pi_map, verify_duality
from cssconcat.decode import DecoderContext, success_oracle_rows
from cssconcat.errors import DecodeFailure
from cssconcat.galois import Extension, Field
from cssconcat.matrix import MatGF
from cssconcat.outer_grs import nested_grs_pair

from benchstats import mc_seed, median, percentile, trial_key, within_sigmas

MIN_CALLS_PER_SIDE = 3
# Width of the failure-count gate.  At 3 sigma a run fails by chance about
# once in 370 runs, so a round of some 70 runs fails about one time in six;
# at 4 sigma about one round in 200 does.
GATE_SIGMAS = 4.0
ORACLE_BATCH = 2048  # mc_error_rate's default chunk: the success oracle's batch


class GateFailed(Exception):
    """A correctness check of the benchmark did not hold."""


@dataclass
class Workload:
    name: str
    q: int
    n: int
    N: int
    K: int
    p: float
    block_length: int
    logical_dims: int
    setup_reps: int
    mc_trials: int
    replay_trials: int
    cli_trials: int
    reference: dict | None
    why: str = ""

    @property
    def k(self):
        """Extension degree: the inner pair bvector_pair(1^n, 1^n) is [[n, n-2]]."""
        return self.n - 2


class Ledger:
    """Counts the benchmark's operations and those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, what, fn, *args):
        """Run one operation; an exception or a failed gate counts as failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            print(f"FAILED: {what}", file=sys.stderr)
            return None


@dataclass
class Built:
    field: Field
    inner: object
    ext: Extension
    cp: object
    ctxs: tuple  # (side 1, side 2) DecoderContext


def _check_dims(w, cp):
    got = (cp.block_length, cp.logical_dims)
    if got != (w.block_length, w.logical_dims):
        raise GateFailed(f"built [[{got[0]},{got[1]}]], expected "
                         f"[[{w.block_length},{w.logical_dims}]]")


class Span(NamedTuple):
    id: int
    parent: int | None
    layer: str
    start_ns: int
    end_ns: int
    trial: int | None
    side: int | None


class Tracer:
    """Spans kept in memory, one per call into a layer."""

    def __init__(self):
        self.spans: list[Span] = []
        self._next = 0

    @contextmanager
    def span(self, layer, parent=None, trial=None, side=None):
        sid = self._next
        self._next += 1
        start = time.perf_counter_ns()
        try:
            yield sid
        finally:
            self.spans.append(Span(sid, parent, layer, start, time.perf_counter_ns(),
                                   trial, side))

    def durations_s(self, layer, side=None):
        return [(s.end_ns - s.start_ns) * 1e-9 for s in self.spans
                if s.layer == layer and (side is None or s.side == side)]

    def total_s(self, layer, side=None):
        return sum(self.durations_s(layer, side))


class _NoTrace:
    """Stand-in for :class:`Tracer` in the untraced set-up."""

    @contextmanager
    def span(self, layer, parent=None, trial=None, side=None):
        yield None


def build(w: Workload, tracer=_NoTrace()) -> Built:
    """The timed set-up: field, inner pair, extension, outer pair, concatenation
    and both decoder contexts."""
    with tracer.span("setup") as root:
        F = Field(w.q)
        with tracer.span("codes.inner_pair", root):
            inner = bvector_pair(F, [1] * w.n, [1] * w.n)
        with tracer.span("galois.extension", root):
            ext = Extension(F, w.k)
            ext.as_field()
        with tracer.span("outer_grs.grs_build", root):
            outer = nested_grs_pair(ext, w.N, w.K, w.K)
        with tracer.span("concat.concatenate", root):
            cp = concatenate(inner, outer, ext)
        with tracer.span("decode.context", root):
            ctxs = (DecoderContext(cp, side=1), DecoderContext(cp, side=2))
    _check_dims(w, cp)
    return Built(F, inner, ext, cp, ctxs)


def channel(w, built):
    return AdditiveChannel.symmetric(built.field, w.p)


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def _verify(cp):
    if not verify_duality(cp):
        raise GateFailed("verify_duality returned False")


def _failure_gate(w, trials, failures):
    """Pooled failures against the reference rates recorded in spec.json."""
    total = failures[1] + failures[2]
    if w.reference is None:
        raise GateFailed(f"{w.name} has no reference failure rate")
    groups = [(trials[s], w.reference[f"side{s}"]["failures"],
               w.reference[f"side{s}"]["trials"]) for s in (1, 2)]
    if not within_sigmas(total, groups, GATE_SIGMAS):
        expected = sum(n * f / t for n, f, t in groups)
        raise GateFailed(f"{total} failures in {trials[1] + trials[2]} trials; "
                         f"reference expects {expected:.1f}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w: Workload, seed: int, seconds: float, ledger: Ledger):
    """Untraced run.  Returns ``(end-to-end metric values, set-up times)``.

    Each of the ``setup_reps`` rounds builds the pair and then runs MC calls
    of ``mc_trials`` trials, alternating sides and each with its own seed,
    for its share of ``seconds``, so set-up samples spread over the whole
    run.  The first pair is verified.  The MC calls feed the failure-count
    gate and the peak memory; their speed is measured in the traced run.
    """
    setup_s = []
    trials = {1: 0, 2: 0}
    failures = {1: 0, 2: 0}
    calls = 0
    for rep in range(w.setup_reps):
        built = None  # free the last round's pair, so peak RSS holds one
        res = ledger.run("set-up", _timed, build, w)
        if res is None:
            continue
        dt, built = res
        setup_s.append(dt)
        if rep == 0:
            ledger.run("verify", _verify, built.cp)
        ch = channel(w, built)
        last = rep == w.setup_reps - 1
        deadline = time.perf_counter() + seconds / w.setup_reps
        while (time.perf_counter() < deadline
               or (last and calls < 2 * MIN_CALLS_PER_SIDE)):
            side = 1 + calls % 2
            r = ledger.run(f"MC side {side}", mc_error_rate, built.ctxs[side - 1], ch,
                           w.mc_trials, mc_seed(seed, side, calls // 2))
            calls += 1
            if r is not None:
                trials[side] += r.trials
                failures[side] += r.failures
    ledger.run("failure-count gate", _failure_gate, w, trials, failures)
    metrics = {"peak_rss_mb": peak_rss_mb()}
    if setup_s:
        metrics["setup_s"] = median(setup_s)
    print(f"# {w.name}: {len(setup_s)} set-ups, {calls} MC calls, failures "
          f"{failures[1]} + {failures[2]} in {trials[1]} + {trials[2]} trials",
          file=sys.stderr)
    return metrics, setup_s


# -- traced run ---------------------------------------------------------------

@dataclass
class ReplayCounts:
    trials: int = 0
    failures: int = 0
    outer_decode_failures: int = 0
    bad_blocks: int = 0
    needs_outer: int = 0
    miscorrections: int = 0


def replay(ctx, ch, trials, seed, tracer: Tracer) -> ReplayCounts:
    """Re-run ``mc_error_rate(ctx, ch, trials, seed)`` one trial and one stage
    at a time, with a span around every call into a layer."""
    f = ctx.field
    side = ctx.side
    upper_len = ctx.upper_len
    # mc_error_rate counts a block as bad when the stage-1 miss is not in
    # the span of the inner dual of the opposite code
    inner_dual = ctx.cp.inner.C2.Hmat if side == 1 else ctx.cp.inner.C1.Hmat
    c = ReplayCounts(trials=trials)
    for i in range(trials):
        with tracer.span("trial", trial=i, side=side) as t:
            with tracer.span("channel_sim.sample", t, i, side):
                e = sample_error(ch, ctx.N * ctx.n, trial_key(i, seed))
            with tracer.span("channel_sim.syndrome", t, i, side):
                s = f.matmul(e, ctx.Ho.T)
            with tracer.span("decode.stage1", t, i, side):
                ehat = ctx.stage1(s[:upper_len])
            with tracer.span("channel_sim.inner_check", t, i, side):
                miss = f.sub(e, ehat).reshape(ctx.N, ctx.n)
                c.bad_blocks += int((~inner_dual.span_contains_rows(miss)).sum())
            with tracer.span("channel_sim.syndrome", t, i, side):
                resid = f.sub(s[upper_len:], f.matmul(ehat, ctx.Gp.T))
            outer_ok = False
            if resid.any():
                c.needs_outer += 1
                with tracer.span("decode.reassemble", t, i, side):
                    symbols = ctx.reassemble_symbols(resid)
                try:
                    with tracer.span("outer_grs.bd_decode", t, i, side):
                        x = ctx.grs.bd_decode(symbols)
                except DecodeFailure:
                    c.outer_decode_failures += 1
                else:
                    outer_ok = True
                    if x.any():
                        with tracer.span("concat.pi_map", t, i, side):
                            ehat = f.add(ehat, pi_map(side, ctx.cp.inner, ctx.ext, x))
            with tracer.span("decode.oracle", t, i, side):
                ok = bool(success_oracle_rows(ctx, e[None, :], ehat[None, :])[0])
            if not ok:
                c.failures += 1
                c.miscorrections += outer_ok
    return c


def _replay_side(ctx, ch, trials, seed, tracer):
    """Untraced MC, then its traced replay; the counts must agree exactly.

    Returns ``(replay counts, MC wall time, replay wall time)``.
    """
    mc_dt, r = _timed(mc_error_rate, ctx, ch, trials, seed)
    replay_dt, c = _timed(replay, ctx, ch, trials, seed, tracer)
    got = (c.failures, c.outer_decode_failures, c.bad_blocks / (trials * ctx.N))
    want = (r.failures, r.outer_decode_failures, r.inner_block_rate)
    if got != want:
        raise GateFailed(f"side {ctx.side} replay (failures, outer failures, inner "
                         f"block rate) {got} differs from mc_error_rate {want}")
    return c, mc_dt, replay_dt


def _layer_probes(w, built, seed, tracer):
    """Single calls into layers that the set-up and MC spans do not isolate."""
    F, ext, cp = built.field, built.ext, built.cp
    with tracer.span("concat.build_parity_check"):
        build_parity_check(built.inner, ext, cp.Hout1, side=1)
        build_parity_check(built.inner, ext, cp.Hout2, side=2)
    with tracer.span("codes.coset_table"):
        CosetLeaderTable(built.inner.C1)
        CosetLeaderTable(built.inner.C2)
    ext.phi_dual(1)  # build the lazy trace table outside the timed calls
    for a in range(ext.Q):
        with tracer.span("galois.phi_dual"):
            ext.phi_dual(a)
    with tracer.span("matrix.rref"):
        MatGF(F, cp.L1.G).rref()
    with tracer.span("matrix.null_space"):
        cp.L1.Gmat.null_space()
    # the success-oracle shape: a chunk of errors against the opposite
    # code's parity rows, with the rref built beforehand as the decoder does
    opposite = MatGF(F, cp.L2.H)
    opposite.rref()
    rng = np.random.default_rng(seed)
    ch = channel(w, built)
    batch = np.searchsorted(ch.cdf, rng.random((ORACLE_BATCH, cp.block_length)),
                            side="right").astype(np.int64)
    with tracer.span("matrix.span_rows"):
        opposite.span_contains_rows(batch)


def _cli_check(w, built, seed, work_dir, tracer):
    """``cssconcat simulate`` on files written by fileio must print the same
    CSV line as ``mc_error_rate`` on the same inputs."""
    os.makedirs(work_dir, exist_ok=True)
    cfg = os.path.join(work_dir, "concat.cfg")
    fileio.write_pair(os.path.join(work_dir, "inner.txt"), built.inner)
    fileio.write_concat_config(cfg, "inner.txt", built.ext, w.N, w.K, w.K)
    with tracer.span("fileio.read_config"):
        fileio.read_concat_config(cfg)
    ch = channel(w, built)
    probs = ",".join(repr(float(x)) for x in ch.probs)
    out = io.StringIO()
    argv = ["--seed", str(seed), "simulate", "--pair", cfg, "--channel", probs,
            "--trials", str(w.cli_trials)]
    with tracer.span("cli.simulate"):
        code = cli.main(argv, out=out)
    r = mc_error_rate(built.ctxs[0], ch, w.cli_trials, seed)
    want = (f"\"{probs}\",{r.trials},{r.failures},"
            f"{r.estimate:.10g},{r.ci_lo:.10g},{r.ci_hi:.10g}")
    lines = out.getvalue().splitlines()
    if code != 0 or not lines or lines[-1] != want:
        raise GateFailed(f"cli simulate exit {code}, printed {lines[-1:]}, "
                         f"mc_error_rate gives {want!r}")


# per-layer metrics that are the total time of the spans of one layer
SPAN_TOTALS = ("galois.extension", "codes.inner_pair", "codes.coset_table",
               "outer_grs.grs_build", "outer_grs.bd_decode", "concat.concatenate",
               "concat.build_parity_check", "concat.pi_map", "decode.context",
               "decode.stage1", "decode.oracle", "matrix.rref", "matrix.null_space",
               "matrix.span_rows", "channel_sim.sample", "channel_sim.syndrome",
               "channel_sim.inner_check", "cli.simulate", "fileio.read_config")


def trace(w: Workload, seed: int, ledger: Ledger, work_dir: str):
    """Traced run.  Returns ``(per-layer metric values, tracer)``."""
    tracer = Tracer()
    built = ledger.run("set-up", build, w, tracer)
    if built is None:
        return {}, tracer
    ledger.run("layer probes", _layer_probes, w, built, seed, tracer)
    res = ledger.run("verify", _timed, _verify, built.cp)
    verify_s = res[0] if res is not None else None
    ch = channel(w, built)
    sides = {}
    for side in (1, 2):
        res = ledger.run(f"replay side {side}", _replay_side, built.ctxs[side - 1], ch,
                         w.replay_trials, mc_seed(seed, side, 0), tracer)
        if res is not None:
            sides[side] = res
    ledger.run("CLI check", _cli_check, w, built, seed, work_dir, tracer)

    m = {f"{layer}_s": tracer.total_s(layer) for layer in SPAN_TOTALS}
    m["decode.reassemble_s"] = tracer.total_s("decode.reassemble", side=2)
    m["galois.phi_dual_us"] = median(tracer.durations_s("galois.phi_dual")) * 1e6
    rows, cols = built.cp.L1.G.shape
    m["matrix.rref_rows"] = rows
    m["matrix.rref_cols"] = cols
    bd_us = [d * 1e6 for d in tracer.durations_s("outer_grs.bd_decode")]
    m["outer_grs.bd_decode_calls"] = len(bd_us)
    m["outer_grs.bd_decode_us_p50"] = percentile(bd_us, 50) if bd_us else 0.0
    m["outer_grs.bd_decode_us_p99"] = percentile(bd_us, 99) if bd_us else 0.0
    m["concat.pi_map_calls"] = len(tracer.durations_s("concat.pi_map"))
    counts = [c for c, _, _ in sides.values()]
    n_trials = sum(c.trials for c in counts)
    if n_trials:
        m["outer_grs.bd_decode_failures"] = sum(c.outer_decode_failures for c in counts)
        m["decode.outer_needed_ratio"] = sum(c.needs_outer for c in counts) / n_trials
        m["decode.miscorrections"] = sum(c.miscorrections for c in counts)
        m["channel_sim.bad_blocks_per_trial"] = sum(c.bad_blocks for c in counts) / n_trials
        m["mc_failure_rate"] = sum(c.failures for c in counts) / n_trials
    for side, (c, mc_dt, _) in sides.items():
        m[f"mc_side{side}_trials_per_s"] = c.trials / mc_dt
    if sides:
        m["trace.overhead_ratio"] = (sum(d for _, _, d in sides.values())
                                     / sum(d for _, d, _ in sides.values()))
    if verify_s is not None:
        m["verify_s"] = verify_s
    m["error_rate"] = ledger.failed / ledger.attempted
    return m, tracer
