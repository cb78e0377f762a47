"""Long MC run that gives a workload's reference failure counts.

Run from the root of a checkout:

    python3 perfbench/reference.py --workload rs63-gf64 --trials 30000

It prints the ``reference`` entry for the workload in ``spec.json``: per
side, the failures seen in ``--trials`` trials.  The failure-count gate of
``run.py`` compares each run's pooled count with these rates.  The seed is
fixed and far from small run seeds, so reference and runs draw different
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import SPEC_PATH, use_checkout

REFERENCE_SEED = (1 << 64) - 1
CALL_TRIALS = 2048


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--trials", type=int, required=True, help="trials per side")
    args = p.parse_args(argv)
    if not use_checkout(os.getcwd()):
        print("error: run from the root of a checkout", file=sys.stderr)
        return 2

    import pipeline
    from benchstats import mc_seed
    from cssconcat.channel_sim import mc_error_rate

    with open(SPEC_PATH) as fh:
        w = pipeline.Workload(name=args.workload, **json.load(fh)["workloads"][args.workload])
    built = pipeline.build(w)
    ch = pipeline.channel(w, built)
    reference = {}
    for side in (1, 2):
        failures = done = call = 0
        while done < args.trials:
            n = min(CALL_TRIALS, args.trials - done)
            r = mc_error_rate(built.ctxs[side - 1], ch, n, mc_seed(REFERENCE_SEED, side, call))
            failures += r.failures
            done += n
            call += 1
        reference[f"side{side}"] = {"failures": failures, "trials": done}
    print(json.dumps({args.workload: reference}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
