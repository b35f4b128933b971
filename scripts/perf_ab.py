#!/usr/bin/env python3
"""Paired A/B comparison of two git revisions on the perfbench workloads.

Builds each revision from a `git archive` copy under a scratch directory
(each copy builds its own .bench_build/), then runs N alternating pairs per
workload and seed, flipping which side runs first every pair. For every
metric it prints both medians and interquartile ranges, the pairs the change
won, an exact two-sided sign-test p value and a verdict:

  gain        the change is better in >= 90% of pairs, p < 0.05, and the
              medians differ by more than the parent's IQR;
  regression  the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound (end-to-end metrics only);
  unresolved  anything else.

Count metrics are deterministic per seed, so they are not sampled: the script
checks that each repeats exactly across the runs of one revision (exit status
1 if not) and reports its exact change.

Usage:
  scripts/perf_ab.py PARENT_REV CHANGE_REV [--pairs 10] [--seconds 20]
      [--workloads hdfs_diag,rpc_storm] [--seeds 1] [--trace 0|1]
      [--scratch DIR] [--raw FILE]

An A/A run (the same revision on both sides) should print only "unresolved".
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Metrics that count things; a run's value is a ratio of exact counts that
# depends only on the seed and the workload.
COUNT_METRICS = (
    "wire_bytes_per_req",
    "baggage.bytes_per_hop",
    "core.woven_fires_per_req",
    "simsys.events_per_req",
)


def checkout(rev, dest):
    """Extracts `rev` into `dest` with git archive (once per directory)."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", rev], check=True,
                         capture_output=True, text=True).stdout.strip()
    stamp = os.path.join(dest, ".perf_ab_rev")
    if os.path.exists(stamp) and open(stamp).read() == sha:
        return sha
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit("git archive failed for " + rev)
    with open(stamp, "w") as f:
        f.write(sha)
    return sha


def run_once(tree, workload, seed, seconds, trace):
    """One perfbench run; returns its parsed JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench failed in %s:\n%s" % (tree, proc.stderr[-2000:]))
    return json.loads(lines[-1])


def sign_test_p(wins, losses):
    """Exact two-sided sign test over the untied pairs."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0 ** n
    return min(1.0, 2.0 * tail)


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def fmt(v):
    return "%.4g" % v


def compare(name, lower_is_better, bound, parent, change):
    """One table row for paired samples `parent[i]`, `change[i]`."""
    pairs = len(parent)
    wins = sum((c < p) if lower_is_better else (c > p) for p, c in zip(parent, change))
    losses = sum((c > p) if lower_is_better else (c < p) for p, c in zip(parent, change))
    p_value = sign_test_p(wins, losses)
    mp, mc = statistics.median(parent), statistics.median(change)
    rel = (mc - mp) / mp if mp else 0.0
    worse = rel if lower_is_better else -rel
    verdict = "unresolved"
    if bound is not None and worse > bound:
        verdict = "regression"
    elif wins >= math.ceil(0.9 * pairs) and p_value < 0.05 and abs(mc - mp) > iqr(parent):
        verdict = "gain"
    return "%-34s %11s (%9s) %11s (%9s) %+7.1f%% %5s %8.4f  %s" % (
        name, fmt(mp), fmt(iqr(parent)), fmt(mc), fmt(iqr(change)), 100 * rel,
        "%d/%d" % (wins, pairs), p_value, verdict)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--workloads", default="hdfs_diag,rpc_storm")
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scratch", default=os.path.join(tempfile.gettempdir(), "perf_ab"))
    parser.add_argument("--raw", help="append every run's JSON line to this file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    specs = {m["name"]: m for m in contract["end_to_end"]}
    if args.trace:
        specs.update({m["name"]: m for m in contract["per_layer"]})

    trees = {"parent": os.path.join(args.scratch, "parent"),
             "change": os.path.join(args.scratch, "change")}
    shas = {side: checkout(rev, trees[side])
            for side, rev in (("parent", args.parent), ("change", args.change))}
    print("parent %s  change %s  pairs %d  seconds %d  trace %d" %
          (shas["parent"][:10], shas["change"][:10], args.pairs, args.seconds, args.trace))

    exact = True
    for workload in args.workloads.split(","):
        for seed in (int(s) for s in args.seeds.split(",")):
            for side in trees:  # Builds each tree before anything is timed.
                run_once(trees[side], workload, seed, 1, args.trace)
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = run_once(trees[side], workload, seed, args.seconds, args.trace)
                    if not result.get("correct") or result.get("failed"):
                        print("  %s run %d: correct=%s failed=%s" %
                              (side, i, result.get("correct"), result.get("failed")))
                    runs[side].append(result)
                    if args.raw:
                        with open(args.raw, "a") as f:
                            f.write(json.dumps(dict(result, side=side, workload=workload,
                                                    seed=seed)) + "\n")
            print("\n%s seed %d" % (workload, seed))
            print("%-34s %11s (%9s) %11s (%9s) %8s %5s %8s  %s" %
                  ("metric", "parent", "IQR", "change", "IQR", "delta", "wins", "p", "verdict"))
            for name, spec in specs.items():
                values = {side: [r["metrics"][name]["value"] for r in runs[side]
                                 if name in r["metrics"]] for side in runs}
                if len(values["parent"]) != args.pairs or len(values["change"]) != args.pairs:
                    continue
                if name in COUNT_METRICS:
                    for side, vals in values.items():
                        if len(set(vals)) != 1:
                            exact = False
                            print("%-34s NOT EXACT on %s: %s" % (name, side, vals))
                    p, c = values["parent"][0], values["change"][0]
                    print("%-34s %11s %23s %+7.1f%%  (exact count)" %
                          (name, fmt(p), fmt(c), 100 * (c - p) / p if p else 0.0))
                    continue
                print(compare(name, spec["better"] == "lower", spec.get("bound"),
                              values["parent"], values["change"]))
    sys.exit(0 if exact else 1)


if __name__ == "__main__":
    main()
