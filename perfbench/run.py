#!/usr/bin/env python3
"""Build and run the burstsim benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload figure-sweep --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. Builds the library, the `burstsim` CLI and
the `perfbench` binary from source (Release) into .bench_build/perfbench,
runs one workload, echoes its report and ends with its one-line JSON
result. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("figure-sweep", "pchase", "cmp-mix")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure and build; build output goes to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD, "-j", "4",
         "--target", "perfbench", "burstsim_cli"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--instructions", type=int, default=0,
                    help="override every point's size (tests only)")
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD, "work-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cli", os.path.join(BUILD, "bin", "burstsim"),
             "--work-dir", work,
             "--instructions", str(args.instructions)],
            stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: exited with %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: printed no result line")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
