#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md here).

    python3 perfbench/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest --seed 1

Run from the root of a checkout. The benchmark package is configured and
built in Release under .bench_build/perfbench (incremental after the first
run), then the driver binary runs one workload. Build output and progress
go to standard error; the last line of standard output is the result JSON.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("point", "paths", "adhoc", "remote")
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "eval", "engine.h")):
        sys.exit("perfbench: no engine sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench: build failed: %s" % err)

    if args.selftest:
        cmd = [binary, "--selftest", "--seed", str(args.seed)]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
