"""Benchmark of the cssconcat pipeline on one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rs63-gf64 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes the
separate traced run that gives the per-layer metrics and writes its spans
to ``.bench_out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every operation and correctness gate passed; it is 2 for a
usage error or when the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "spec.json")

# numpy is imported only after these are pinned, so that no BLAS or OpenMP
# pool adds threads; the run record lists the values in effect
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    sys.path.insert(0, HERE)
    from benchstats import check_seed

    with open(SPEC_PATH) as fh:
        names = sorted(json.load(fh)["workloads"])

    def seed_type(text):
        try:
            return check_seed(int(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=seed_type,
                   help="workload seed in [0, 2**64)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="MC time of the untraced run, spread over its set-ups")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def use_checkout(root):
    """Put the checkout's library source first on the import path.

    Returns False when ``root`` holds no library source.
    """
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cssconcat", "__init__.py")):
        return False
    sys.path.insert(0, src)
    import cssconcat

    return os.path.abspath(cssconcat.__file__).startswith(os.path.abspath(src) + os.sep)


def expected_metrics(root, trace):
    """Metric names and units that BENCHMARK.json promises for this mode."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    root = os.getcwd()
    if not use_checkout(root):
        print(f"error: no cssconcat source under {os.path.join(root, 'src')}",
              file=sys.stderr)
        return 2
    units = expected_metrics(root, args.trace)

    import numpy as np
    import pipeline

    with open(SPEC_PATH) as fh:
        spec = json.load(fh)["workloads"][args.workload]
    w = pipeline.Workload(name=args.workload, **spec)
    ledger = pipeline.Ledger()
    out_dir = os.path.join(root, ".bench_out")
    tag = f"{w.name}-s{args.seed}-t{args.trace}"
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds,
              "threads": {v: os.environ[v] for v in THREAD_VARS},
              "nproc": os.cpu_count(), "python": platform.python_version(),
              "numpy": np.__version__}
    if args.trace:
        values, tracer = pipeline.trace(w, args.seed, ledger,
                                        os.path.join(out_dir, tag + "-cli"))
        record["spans"] = [list(s) for s in tracer.spans]
    else:
        values, record["setup_s_samples"] = pipeline.measure(w, args.seed, args.seconds, ledger)

    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    correct = ledger.failed == 0 and not missing
    result = {"correct": correct, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    record["result"] = result
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, tag + ".json"), "w") as fh:
        json.dump(record, fh)
    for name, m in metrics.items():
        print(f"{w.name} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
