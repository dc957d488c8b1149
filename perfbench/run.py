#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload table1|delta|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root.  Builds the solver libraries and the workload
program from source into $CARGO_TARGET_DIR (default .bench_build), runs the
benchmark's own quantile tests, then one measurement run of the workload
program.  Build output goes to stderr; the program's stdout is passed
through, so the last stdout line is the JSON result.  Exits non-zero,
without a result, when the build or the tests fail.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def step(cmd, **kw):
    """Run a build/test step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, **kw).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {cmd[0]}: {e}", file=sys.stderr)
        return False


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=["table1", "delta", "serve"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    a = p.parse_args()

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        if not step(["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]):
            return 1
    if not step(["cmake", "--build", build, "-j", jobs]):
        return 1
    if not step([os.path.join(build, "perfbench_quantile_test")], timeout=60):
        return 1

    cmd = [os.path.join(build, "perfbench_workloads"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", a.trace,
           "--trace-dir", os.path.join(build, "traces")]
    try:
        rc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
