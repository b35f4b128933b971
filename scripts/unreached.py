#!/usr/bin/env python3
"""Coverage census: the src/ functions that no production binary executes.

Configures two coverage builds (-O0 --coverage) under WORK_DIR: the main
tree (WORK_DIR/main: examples and benches only, no tests) and the perfbench
project (WORK_DIR/perfbench). It then runs every production binary:

  * pt_bench on every workload, with --trace 0 and with --trace 1;
  * ctest -R '^example_' in the main build, so every example runs with the
    scripted inputs its ctest entries give it;
  * every bench binary, with a small --benchmark_min_time for the Google
    Benchmark ones. A bench gate's exit status is ignored: the census wants
    what ran, not whether a bound held.

Finally it reads the counters with gcov and prints each src/ function that no
run executed, as `path:line name`, then a per-file count. A function compiled
into several objects (an inline or a template) counts as executed if any
copy ran; each instantiation of a template counts on its own.

Usage (from anywhere; the sources are the checkout this script sits in):
  scripts/unreached.py WORK_DIR [--seconds 3] [--jobs 3] [--report-only]

WORK_DIR must lie outside perfbench/, .bench_build/ and the default build
directories (build/, build-asan/, build-tsan/); the script writes nothing
else. A full census (both builds and every run) takes about 12 minutes on
four cores.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src") + os.sep
WORKLOADS = ("hdfs_diag", "rpc_storm", "baggage_chain")
FORBIDDEN = ("perfbench", ".bench_build", "build", "build-asan", "build-tsan")
COVERAGE_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug", "-DCMAKE_CXX_FLAGS=-O0 --coverage",
                  "-DCMAKE_EXE_LINKER_FLAGS=--coverage"]


def executables(cmake_lists):
    """(name, links Google Benchmark) for each add_executable in a CMakeLists."""
    text = open(cmake_lists).read()
    names = re.findall(r"add_executable\((\w+)", text)
    gbench = set(re.findall(r"target_link_libraries\((\w+)[^)]*benchmark::benchmark", text))
    return [(name, name in gbench) for name in names]


def run(cmd, log, **kwargs):
    """Runs `cmd`, appending its output to `log`; returns the exit status."""
    log.write("$ " + " ".join(cmd) + "\n")
    log.flush()
    return subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, **kwargs).returncode


def build(work, jobs, log):
    examples = [name for name, _ in executables(os.path.join(ROOT, "examples", "CMakeLists.txt"))]
    benches = [name for name, _ in executables(os.path.join(ROOT, "bench", "CMakeLists.txt"))]
    main = os.path.join(work, "main")
    perf = os.path.join(work, "perfbench")
    steps = [
        ["cmake", "-S", ROOT, "-B", main] + COVERAGE_FLAGS,
        ["cmake", "--build", main, "-j", str(jobs), "--target"] + examples + benches,
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", perf] + COVERAGE_FLAGS,
        ["cmake", "--build", perf, "-j", str(jobs), "--target", "pt_bench"],
    ]
    for cmd in steps:
        print("building: " + " ".join(cmd[:4]), file=sys.stderr)
        if run(cmd, log) != 0:
            sys.exit("build step failed (see %s): %s" % (log.name, " ".join(cmd)))


def clear_counters(work):
    for dirpath, _, files in os.walk(work):
        for f in files:
            if f.endswith(".gcda"):
                os.remove(os.path.join(dirpath, f))


def run_all(work, seconds, log):
    env = dict(os.environ, PIVOT_BENCH_JSON_DIR=os.path.join(work, "bench-results"))
    env.pop("PIVOT_CSV_DIR", None)
    os.makedirs(env["PIVOT_BENCH_JSON_DIR"], exist_ok=True)
    pt_bench = os.path.join(work, "perfbench", "pt_bench")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [pt_bench, "--workload", workload, "--seed", "1", "--seconds", str(seconds),
                   "--trace", str(trace)]
            if trace:
                cmd += ["--spans", os.path.join(work, "spans-%s.tsv" % workload)]
            print("running: pt_bench %s --trace %d" % (workload, trace), file=sys.stderr)
            status = run(cmd, log, cwd=work, env=env)
            if status != 0:
                print("  pt_bench exited %d (see %s)" % (status, log.name), file=sys.stderr)
    print("running: ctest -R '^example_'", file=sys.stderr)
    status = run(["ctest", "--test-dir", os.path.join(work, "main"), "-R", "^example_",
                  "--output-on-failure"], log, env=env)
    if status != 0:
        print("  ctest exited %d (see %s)" % (status, log.name), file=sys.stderr)
    for name, gbench in executables(os.path.join(ROOT, "bench", "CMakeLists.txt")):
        cmd = [os.path.join(work, "main", "bench", name)]
        if gbench:
            cmd.append("--benchmark_min_time=0.01")
        print("running: " + name, file=sys.stderr)
        run(cmd, log, cwd=work, env=env)


def function_coverage(work):
    """{(src path, line, name): executed} over every object under `work`."""
    notes = []
    for dirpath, _, files in os.walk(work):
        notes += [os.path.join(dirpath, f) for f in files if f.endswith(".gcno")]
    functions = {}
    devnull = open(os.devnull, "w")
    for note in sorted(notes):
        # gcov reads the .gcda next to the .gcno; without one, every count
        # is zero (the object was linked into nothing that ran).
        out = subprocess.run(["gcov", "--json-format", "--stdout", "-o", os.path.dirname(note),
                              note], stdout=subprocess.PIPE, stderr=devnull, text=True,
                             cwd=work).stdout
        for line in out.splitlines():
            if not line.startswith("{"):
                continue
            for unit in json.loads(line)["files"]:
                path = os.path.realpath(os.path.join(work, unit["file"]))
                if not path.startswith(SRC):
                    continue
                rel = os.path.relpath(path, ROOT)
                for fn in unit["functions"]:
                    key = (rel, fn["start_line"], fn["demangled_name"])
                    functions[key] = functions.get(key, False) or fn["execution_count"] > 0
    return functions


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("work_dir")
    parser.add_argument("--seconds", type=int, default=3, help="seconds per pt_bench run")
    parser.add_argument("--jobs", type=int, default=3, help="parallel build jobs")
    parser.add_argument("--report-only", action="store_true",
                        help="build and run nothing; report the counters already in WORK_DIR")
    args = parser.parse_args()

    work = os.path.realpath(args.work_dir)
    for name in FORBIDDEN:
        guarded = os.path.join(ROOT, name)
        if work == guarded or work.startswith(guarded + os.sep):
            sys.exit("WORK_DIR must lie outside %s" % guarded)
    os.makedirs(work, exist_ok=True)
    if not args.report_only:
        with open(os.path.join(work, "census.log"), "a") as log:
            build(work, args.jobs, log)
            clear_counters(work)
            run_all(work, args.seconds, log)

    functions = function_coverage(work)
    unreached = sorted(key for key, hit in functions.items() if not hit)
    per_file = {}
    for rel, line, name in unreached:
        print("%s:%d %s" % (rel, line, name))
        per_file[rel] = per_file.get(rel, 0) + 1
    print()
    print("unreached per file:")
    for rel in sorted(per_file):
        print("  %4d %s" % (per_file[rel], rel))
    print("%d of %d src/ functions unreached" % (len(unreached), len(functions)))


if __name__ == "__main__":
    main()
