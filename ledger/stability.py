#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 ledger/stability.py [--runs 10] [--first-seed 1] [--seconds 10]
                                [--workload NAME ...]

Runs ledger/run.py once per seed (seeds first-seed .. first-seed+runs-1) on
each workload, sequentially, from the checkout root, and prints for every
end-to-end metric its median and the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json, plus each run's
failed/attempted share.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args()
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = subprocess.run(
                [sys.executable, os.path.join(ROOT, "ledger", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            shares.append("%d/%d" % (result["failed"], result["attempted"]))
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s  (seeds %d-%d, failed/attempted: %s)" % (
            workload, args.first_seed, args.first_seed + args.runs - 1,
            " ".join(shares)))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print("  %-16s median %10.4f  iqr/median %6.3f  bound %.2f  [%s]"
                  % (name, med, (q3 - q1) / med, bounds[name],
                     " ".join("%.4g" % v for v in vals)))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
