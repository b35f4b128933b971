#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite, then four
# bench gates (all four always run; the exit status is 1 if any failed). Each
# bench gates at its own constant bound:
#   1. telemetry probe effect: the unwoven tracepoint fast path stays within
#      10% of the seed implementation (bench_telemetry_overhead;
#      docs/OBSERVABILITY.md);
#   2. install-time analysis: static analysis of one query on the full Hadoop
#      topology stays under 1000 us (bench_lint_overhead; docs/ANALYSIS.md);
#   3. serialize memoization: serializing an unchanged baggage is at least
#      10x faster than a re-encode (bench_hotpath);
#   4. emission scaling: sharded intake is at least 3x the one-shard intake
#      at 8 threads, and at most 1.25x its cost single-threaded
#      (bench_emit_mt; docs/PERFORMANCE.md).
#
# Usage: scripts/check.sh [--sanitize=<mode>] [build-dir]
#   --sanitize=address      build with ASan+UBSan in a separate build dir
#   --sanitize=thread       build with TSan in a separate build dir
#
# Sanitizer runs skip the bench gates: instrumented timings are meaningless.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
sanitize=""
case "${1:-}" in
  --sanitize=*)
    sanitize=${1#--sanitize=}
    shift
    ;;
esac

# Machine-readable bench results: every bench writes BENCH_<name>.json here
# (bench/bench_util.h BenchJson); CI uploads the directory as an artifact.
export PIVOT_BENCH_JSON_DIR=${PIVOT_BENCH_JSON_DIR:-"$repo_root/bench-results"}
mkdir -p "$PIVOT_BENCH_JSON_DIR"
export PIVOT_GIT_SHA=${PIVOT_GIT_SHA:-$(git -C "$repo_root" rev-parse HEAD 2>/dev/null || echo unknown)}

case "$sanitize" in
  "")
    build_dir=${1:-"$repo_root/build"}
    cmake -B "$build_dir" -S "$repo_root"
    ;;
  address)
    build_dir=${1:-"$repo_root/build-asan"}
    cmake -B "$build_dir" -S "$repo_root" -DPIVOT_SANITIZE="address;undefined"
    ;;
  thread)
    build_dir=${1:-"$repo_root/build-tsan"}
    cmake -B "$build_dir" -S "$repo_root" -DPIVOT_SANITIZE="thread"
    ;;
  *)
    echo "unknown --sanitize mode '$sanitize' (expected: address, thread)" >&2
    exit 2
    ;;
esac

cmake --build "$build_dir" -j "$(nproc 2>/dev/null || echo 4)"

echo
echo "=== tier-1 tests ==="
ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"

if [ -n "$sanitize" ]; then
  echo
  echo "All checks passed under -fsanitize=$sanitize."
  exit 0
fi

# Every gate runs even when an earlier one fails; each prints its verdict,
# and the script exits 1 if any gate failed.
failed_gates=""
# run_gate NAME COMMAND...: runs one bench gate and records its verdict.
run_gate() {
  gate=$1
  shift
  if "$@"; then
    echo "--- gate '$gate': PASS"
  else
    echo "--- gate '$gate': FAIL"
    failed_gates="$failed_gates $gate"
  fi
}

echo
echo "=== telemetry overhead gate ==="
run_gate telemetry-overhead "$build_dir/bench/bench_telemetry_overhead"

echo
echo "=== install-time analysis gate ==="
run_gate lint-overhead "$build_dir/bench/bench_lint_overhead"

echo
echo "=== serialize memoization gate ==="
run_gate serialize-memo "$build_dir/bench/bench_hotpath"

echo
echo "=== emission scaling gate ==="
# The MT gate self-skips on < 4 hardware threads (the contention it measures
# cannot exist on one core); the single-thread ratio gate always runs.
run_gate emission-scaling "$build_dir/bench/bench_emit_mt"

echo
if [ -n "$failed_gates" ]; then
  echo "FAILED gates:$failed_gates. Bench results: $PIVOT_BENCH_JSON_DIR/BENCH_*.json"
  exit 1
fi
echo "All checks passed. Bench results: $PIVOT_BENCH_JSON_DIR/BENCH_*.json"
