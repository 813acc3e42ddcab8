#!/usr/bin/env python3
"""Build and run the distmcu benchmark.

    python3 perfbench/run.py --workload decode_batch --seed 1 --seconds 12 --trace 0

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from src/) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs the benchmark's
self-test, then runs one workload. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Traced runs write their
host spans to <build dir>/spans-<workload>-<seed>.jsonl.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("decode_batch", "slo_mixed", "fleet_burst")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def sh(cmd, timeout, env=None):
    """Run `cmd` with its stdout sent to our stderr; True on success."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, timeout=timeout,
                              env=env).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return False


def build(build_dir):
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not sh(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, env):
            return False
    return sh(["cmake", "--build", build_dir, "-j", "4"], BUILD_TIMEOUT_S, env)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if not sh([os.path.join(build_dir, "perfbench_selftest")], RUN_TIMEOUT_S):
        print("perfbench: self-test failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out",
                os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
