"""Run the benchmark over several seeds and summarize each metric.

Run from the root of a checkout:

    python3 perfbench/steady.py --seeds 1-10 --trace 0 --out runs.json

Runs go one after another, each in its own process.  For every workload and
metric the summary gives the median, the quartiles (as
``statistics.quantiles(n=4)``) and the spread (interquartile distance over
the median), and flags an end-to-end spread above a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import benchstats as bs

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = res.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
    return {"seed": seed, "exit": res.returncode, "result": result}


def summarize(runs):
    values = {}
    for r in runs:
        for name, m in (r["result"] or {}).get("metrics", {}).items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, xs in values.items():
        q1, q2, q3 = bs.quartiles(xs) if len(xs) > 1 else (xs[0],) * 3
        out[name] = {"median": q2, "q1": q1, "q3": q3,
                     "spread": bs.spread(xs) if len(xs) > 1 and q2 else None,
                     "n": len(xs)}
    return out


def main(argv=None):
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    import numpy as np

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                          "python": platform.python_version(), "numpy": np.__version__},
              "seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [one_run(workload, s, args.seconds, args.trace)
                for s in parse_seeds(args.seeds)]
        report["runs"][workload] = runs
        report["summary"][workload] = summary = summarize(runs)
        bad = [r["seed"] for r in runs if r["exit"] != 0]
        ok &= not bad
        print(f"{workload}: {len(runs)} runs, failed seeds {bad}")
        for name, s in summary.items():
            flag = ""
            if name in bounds and name != "setup_s" and (s["spread"] or 0) > bounds[name] / 3:
                flag = f"  > bound/3 ({bounds[name] / 3:.3f})"
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
            print(f"  {name:36s} median {s['median']:<12.6g} spread {spread}{flag}")
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
