#!/usr/bin/env python3
"""Builds the end-to-end Pivot Tracing benchmark and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hdfs_diag|rpc_storm|baggage_chain \
        --seed N --seconds S --trace 0|1

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt) that
compiles the repository's sources under src/. It is configured and built into
.bench_build/perfbench at the repository root; later runs rebuild only what
changed. The last line of standard output is the run's JSON result; build
logs and the human-readable metric table go to standard error. A traced run
(--trace 1) also writes its span buffers to .bench_build/spans/.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "pt_bench")
WORKLOADS = ("hdfs_diag", "rpc_storm", "baggage_chain")
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def run_logged(cmd):
    """Runs a build step; on failure echoes its output to stderr and exits."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd), 3)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Pivot Tracing sources under " + os.path.join(ROOT, "src"), 2)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = max(1, min(4, len(os.sched_getaffinity(0))))
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "pt_bench", "-j", str(jobs)])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 600 or args.seed < 0:
        fail("--seconds must be in [1, 600] and --seed non-negative", 2)

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS_DIR, "%s-seed%d.tsv" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 4)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stderr.write(proc.stdout)
        fail("pt_bench printed no result (exit code %d)" % proc.returncode, 5)
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
