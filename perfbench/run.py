#!/usr/bin/env python3
"""FlashBench entry point: builds the benchmark from source, then runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root or anywhere else: paths are resolved from this
file. The CMake build lives in .bench_build/perfbench under the repository
root and is reused by later runs; traced runs write their spans to
.bench_out/. The last line of standard output is the result as one JSON
object. Exit status: 0 on success, 1 when the build fails or a correctness
check fails, 2 on bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
# Longest a run may take beyond --seconds (one rep of the slowest workload
# plus set-up and the crash/recovery checks fits well inside this).
GRACE_S = 150


def build(target):
    """Configures (once) and builds `target`; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print(f"run.py: build step failed: {' '.join(step)}", file=sys.stderr)
            return None
    return os.path.join(BUILD, target)


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the determinism self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("flashbench_test")
        if binary is None:
            return 1
        return subprocess.run([binary]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds < 1:
        parser.error("--workload, --seed, --seconds (>= 1) and --trace are required")
    binary = build("flashbench")
    if binary is None:
        return 1
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd.append(f"--spans-out={os.path.join(OUT, f'spans-{args.workload}.bin')}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + GRACE_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1

    # The binary's metric list must match BENCHMARK.json exactly.
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace)
    if declared is not None and list(result["metrics"]) != declared:
        sys.stderr.write(proc.stdout)
        print("run.py: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
