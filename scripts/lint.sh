#!/bin/sh
# Grep gates on how src/hadoop crosses process boundaries, on who writes
# values to the wire, on what baggage decode may call, on threads in src, on who executes advice, on
# process-wide atomics in src/core and src/agent, on thread-local state in
# src and on who registers each metric name, then
# clang-tidy over the sources
# (.clang-tidy selects bugprone-*, performance-*, concurrency-*). clang-tidy
# degrades gracefully: the CI container only ships gcc, so a missing
# clang-tidy is a skip, not a failure.
#
# Usage: scripts/lint.sh [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}

# Crossing gate (runs with or without clang-tidy): the Hadoop models cross a
# process boundary only through SimRpcCall (wire) or SimWorld::Cross (in
# memory), never by hand, so every crossing is observed and carries baggage.
if grep -rnE 'ObserveEdge|set_runtime|Baggage::Deserialize|\b(Depart|Arrive)\(' \
  "$repo_root/src/hadoop"; then
  echo "lint: src/hadoop crosses a process boundary by hand; use SimRpcCall or SimWorld::Cross."
  exit 1
fi

# Codec gate: values reach the wire only through the tuple-set codec
# (aggregation.cc), the advice codec (advice_io.cc) and wire.cc itself, so a
# tuple set has one wire form, the same in a bag and in a report.
if grep -rnwE 'PutValue|GetValue' "$repo_root/src" |
  grep -vE '^[^:]*/core/(wire|aggregation|advice_io)\.(h|cc):'; then
  echo "lint: PutValue/GetValue outside wire.cc, aggregation.cc and advice_io.cc;" \
    "encode tuple sets with ResultSet::Encode and read them with SetFrame."
  exit 1
fi

# Baggage gate: a bag travels as bare values and is decoded only by a step
# holding the schema bound into it at weave time, so baggage.cc writes and
# reads no spec and no names, and interns nothing: it calls no PutBagSpec or
# GetBagSpec (the weave command's codec, advice_io.cc), none of the report's
# name-table calls (PutStringList, GetStringList, ResultSet::ColumnNames and
# DecodeNamed) and no Intern.
if grep -nE '\b(PutBagSpec|GetBagSpec|PutStringList|GetStringList|ColumnNames|DecodeNamed)\b|Intern' \
  "$repo_root/src/core/baggage.cc" |
  grep -vE '^[0-9]+:[[:space:]]*//'; then
  echo "lint: src/core/baggage.cc encodes a spec or names, or interns;" \
    "decode bags under the step's BagSchema."
  exit 1
fi

# Thread gate: src owns no thread. Hosts drive PTAgent::Flush and the
# simulator from their own threads; src may ask hardware_concurrency(), but
# declaring or constructing a std::thread or std::jthread there fails.
if grep -rnE '\bstd::j?thread\b' "$repo_root/src" |
  grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' |
  sed -E 's/std::j?thread::hardware_concurrency//g' |
  grep -E '\bstd::j?thread\b'; then
  echo "lint: src declares or constructs a std::thread; let the host own threads."
  exit 1
fi

# Executor gate: AdvicePlan::Execute in src/core/plan.cc is the one advice
# executor. No other src file defines an Execute that takes an
# ExecutionContext*; declarations (lines ending in ';') and calls may stay.
if grep -rnE '\bExecute[[:space:]]*\([^)]*ExecutionContext[[:space:]]*\*' "$repo_root/src" |
  grep -vE '^[^:]*/core/plan\.cc:' |
  grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' |
  grep -vE ';[[:space:]]*$'; then
  echo "lint: an advice executor outside src/core/plan.cc; run advice as an AdvicePlan."
  exit 1
fi

# Shared-counter gate: a process-wide atomic is one cache line that every
# request of every thread writes. Per-request counts go through striped
# telemetry (src/telemetry/metrics.h) or per-thread slots (ThreadOrdinal), so
# no src/core or src/agent file declares a namespace-scope or static
# std::atomic; members of objects (a tracepoint's slots, a shard's count)
# stay allowed.
if grep -rnE '(^((inline|constinit|const|extern)[[:space:]]+)*std::atomic|\bstatic\b[^;(]*\bstd::atomic)' \
  "$repo_root/src/core" "$repo_root/src/agent" |
  grep -vE '^[^:]*:[0-9]+:[[:space:]]*//' |
  grep -vE '\bthread_local\b'; then
  echo "lint: a static or namespace-scope std::atomic in src/core or src/agent;" \
    "count per thread (striped telemetry or per-thread slots)."
  exit 1
fi

# Request-state gate: a request's state travels in its ExecutionContext,
# handed on explicitly (Fork/Join, Depart/Arrive), never in a thread-local
# that a hop or a branch could leave behind. thread_local may appear in src
# only in common/thread_ordinal.h (the thread's slot index) and core/plan.cc
# (the advice plans' per-thread scratch).
if grep -rnw 'thread_local' "$repo_root/src" |
  grep -vE '^[^:]*/(common/thread_ordinal\.h|core/plan\.cc):'; then
  echo "lint: thread_local outside common/thread_ordinal.h and core/plan.cc;" \
    "carry request state in the ExecutionContext."
  exit 1
fi

# Metric-owner gate: one owner per fact. Each metric name passed as a string
# literal to GetCounter or GetHistogram appears in exactly one src file, the
# one that records it. A second file that registers the same name is a
# mirror or a copy; read the owner's accessor or the telemetry dump instead.
metric_owners=$(grep -rnoE 'Get(Counter|Histogram)\([[:space:]]*"[^"]+"' "$repo_root/src" |
  sed -E 's/^([^:]*):[0-9]+:.*"([^"]+)"$/\2 \1/' | sort -u |
  awk '{ n[$1]++; files[$1] = files[$1] " " $2 } END { for (m in n) if (n[m] > 1) print m ":" files[m] }')
if [ -n "$metric_owners" ]; then
  echo "$metric_owners"
  echo "lint: a metric name is registered in more than one src file;" \
    "keep one owner per metric."
  exit 1
fi

if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not found; skipping lint (install clang-tools to enable)."
  exit 0
fi

# The compilation database is written by any CMake configure
# (CMAKE_EXPORT_COMPILE_COMMANDS is on in the top-level CMakeLists.txt).
if [ ! -f "$build_dir/compile_commands.json" ]; then
  cmake -B "$build_dir" -S "$repo_root" >/dev/null
fi

find "$repo_root/src" -name '*.cc' -print | sort |
  xargs clang-tidy -p "$build_dir" --quiet
