#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload select|join|churn --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --reference

The first run configures and builds perfbench/ (the library sources under
src/ plus the harness) into .bench_build/perfbench in Release mode; later
runs rebuild only what changed.  Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result.  --reference
prints the README's reference figures instead of running a workload.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("select", "join", "churn")


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--parallel", "4"],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    args = parser.parse_args()
    if not args.reference and None in (args.workload, args.seed, args.seconds):
        parser.error("--workload, --seed and --seconds are required")

    root = os.path.join(os.getcwd(), ".bench_build")
    try:
        binary = build(os.path.join(root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if args.reference:
        cmd = [binary, "--reference",
               "--work-dir", os.path.join(root, "runs", "reference")]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.join(root, "runs", args.workload)]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
