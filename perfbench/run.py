#!/usr/bin/env python3
"""Builds and runs the socket-to-answer benchmark (perfbench/NOTES.md).

    python3 perfbench/run.py --workload read_cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs only rebuild what changed. Build output goes to stderr, so the last
line of stdout is the benchmark's JSON result. Exits non-zero, without a
result, when the build or the run fails.

Extra flags: --holdout replaces --seed with the held-out claim seed
(a gain found on development seeds must also hold there); --tiny runs
the self-test scale.
"""

import argparse
import os
import subprocess
import sys

HOLDOUT_SEED = 1000003
WORKLOADS = ("read_cold", "read_hot", "read_write", "functional")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--holdout", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(root, build_root)
    build = os.path.join(build_root, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))

    def step(cmd):
        result = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            sys.exit(f"perfbench: {' '.join(cmd)} failed ({result.returncode})")

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        step(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build, "-j", jobs])

    # The checkout need not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                            capture_output=True, text=True)
    seed = HOLDOUT_SEED if args.holdout else args.seed
    cmd = [os.path.join(build, "perfbench"), "--workload", args.workload,
           "--seed", str(seed), "--seconds", str(args.seconds),
           "--trace", args.trace,
           "--tmp", os.path.join(build_root, "perfbench-tmp"),
           "--commit", commit.stdout.strip() if commit.returncode == 0 else "unknown",
           "--seed-role", "holdout" if args.holdout else "dev"]
    if args.tiny:
        cmd.append("--tiny")
    try:
        result = subprocess.run(cmd, cwd=root, timeout=175)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
