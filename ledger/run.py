#!/usr/bin/env python3
"""Runs one workload of the capefp end-to-end benchmark.

    python3 ledger/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 ledger/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library from the checkout's src/ together with the benchmark (ledger/
CMakeLists.txt; Release, -O2, no sanitizers) into .bench_build/ledger, or
into $CARGO_TARGET_DIR/ledger when that is set; later calls rebuild only
what changed. Build output goes to stderr. The last line of stdout is the
benchmark's JSON result. --selftest builds and runs the benchmark's own
tests instead (planted checker faults, exact identities).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fig9_ccam_mixed", "rush_batch_mem", "dense_allfp_eps")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("ledger: no capefp sources at %s/src; run from a checkout"
                 % ROOT)
    parent = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, parent, "ledger")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", target], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return subprocess.run([build("ledger_selftest")], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    binary = build("ledger_bench")
    run = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
