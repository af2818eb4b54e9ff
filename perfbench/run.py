#!/usr/bin/env python3
"""Build the FORTRESS benchmark from source and run one workload.

    python3 perfbench/run.py --workload lifetime --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) and results to its results/ directory. The
last line of standard output is the benchmark's JSON result; the exit code is
0 only when the build succeeded and every output check passed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lifetime", "screening", "service_load", "model_sweep")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run measures for --seconds, then checks its outputs; the traced run does
# a fixed budget. A run past this many seconds is hung, and fails.
def run_timeout_s(seconds):
    return seconds * 3 + 120


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build the benchmark; build logs go to stderr."""
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--break-check", choices=("fingerprint", "analytic"),
                    help="test hook: corrupt one output check; the run must fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    out = build_dir()
    if not build(out):
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--plans", os.path.join(HERE, "plans"),
           "--results-dir", os.path.join(out, "results")]
    if args.break_check:
        cmd += ["--break-check", args.break_check]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=run_timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = isinstance(result, dict) and set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stderr.write(proc.stdout)
        print("perfbench: no result line (exit %d)" % proc.returncode, file=sys.stderr)
        return proc.returncode or 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
