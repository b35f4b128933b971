#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite, then four
# bench gates (all four always run; the exit status is 1 if any failed):
#   1. telemetry probe effect: the unwoven tracepoint fast path stays within
#      MAX_OVERHEAD_PCT of the seed implementation (docs/OBSERVABILITY.md);
#   2. install-time analysis: static analysis of one query on the full Hadoop
#      topology stays under MAX_LINT_MICROS (docs/ANALYSIS.md);
#   3. serialize memoization: serializing an unchanged baggage is at least
#      MIN_SERIALIZE_SPEEDUP times faster than a re-encode (bench_hotpath);
#   4. emission scaling: sharded intake is at least MIN_MT_SPEEDUP times the
#      one-shard intake at 8 threads, and at most MAX_ST_RATIO times its cost
#      single-threaded (bench_emit_mt; docs/PERFORMANCE.md).
#
# Usage: scripts/check.sh [--sanitize=<mode>] [build-dir]
#   --sanitize=address      build with ASan+UBSan in a separate build dir
#   --sanitize=thread       build with TSan in a separate build dir
#   MAX_OVERHEAD_PCT=10     gate 1 threshold (percent)
#   MAX_LINT_MICROS=1000    gate 2 threshold (microseconds per query)
#   MIN_SERIALIZE_SPEEDUP=10, MIN_MT_SPEEDUP=3, MAX_ST_RATIO=1.25
#                           gates 3 and 4 thresholds
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
max_overhead=${MAX_OVERHEAD_PCT:-10}
min_serialize_speedup=${MIN_SERIALIZE_SPEEDUP:-10}
min_mt_speedup=${MIN_MT_SPEEDUP:-3}
max_st_ratio=${MAX_ST_RATIO:-1.25}

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
echo "=== telemetry overhead gate (<= ${max_overhead}%) ==="
run_gate telemetry-overhead \
  "$build_dir/bench/bench_telemetry_overhead" --max-overhead-pct="$max_overhead"

max_lint_micros=${MAX_LINT_MICROS:-1000}
echo
echo "=== install-time analysis gate (<= ${max_lint_micros} us/query) ==="
run_gate lint-overhead \
  "$build_dir/bench/bench_lint_overhead" --benchmark_min_time=0.01s \
  --max-lint-micros="$max_lint_micros"

echo
echo "=== serialize memoization gate (clean >= ${min_serialize_speedup}x faster than dirty) ==="
run_gate serialize-memo \
  "$build_dir/bench/bench_hotpath" --min-serialize-speedup="$min_serialize_speedup"

echo
echo "=== emission scaling gate (sharded >= ${min_mt_speedup}x at 8 threads, st ratio <= ${max_st_ratio}x) ==="
# The MT gate self-skips on < 4 hardware threads (the contention it measures
# cannot exist on one core); the single-thread ratio gate always runs.
run_gate emission-scaling \
  "$build_dir/bench/bench_emit_mt" --min-mt-speedup="$min_mt_speedup" \
  --max-st-ratio="$max_st_ratio"

echo
if [ -n "$failed_gates" ]; then
  echo "FAILED gates:$failed_gates. Bench results: $PIVOT_BENCH_JSON_DIR/BENCH_*.json"
  exit 1
fi
echo "All checks passed. Bench results: $PIVOT_BENCH_JSON_DIR/BENCH_*.json"
