// Hot-path micro-benchmarks for the interned-symbol / pre-resolved-plan /
// copy-on-write-baggage overhaul (docs/PERFORMANCE.md):
//
//   1. Tuple field access: Get by SymbolId vs by string, Project by SymbolId.
//   2. Advice execution: AdvicePlan::Execute ns/op on a representative
//      observe/let/filter/unpack/emit program.
//   3. Baggage serialization: dirty (active instance mutated since the last
//      serialize) vs clean (memoized encoding reused). The run fails unless
//      the clean path is kMinSerializeSpeedup (10x) faster: serializing an
//      unchanged baggage — the response leg of every RPC — must be an order
//      of magnitude cheaper than a re-encode.
//   4. Aggregate merge (informational, no gate): ns per row to decode a
//      ~6k-row COUNT report into a fresh set and to merge it into a
//      64k-group total, the frontend's two steps per report on rpc_storm.
//
// Hand-rolled timing (interleaved passes, best-of-N) like
// bench_telemetry_overhead: no google-benchmark dependency, so the gate runs
// identically everywhere check.sh does.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/core/advice.h"
#include "src/core/aggregation.h"
#include "src/core/baggage.h"
#include "src/core/context.h"
#include "src/core/plan.h"
#include "src/core/tuple.h"

namespace pivot {
namespace {

// The gate: a clean serialize must be this many times faster than a dirty one.
constexpr double kMinSerializeSpeedup = 10.0;

// Best-of-passes ns/op for `fn` run `iters` times per pass.
double MeasureNs(const std::function<void()>& fn, int iters, int passes = 8) {
  int64_t best = INT64_MAX;
  for (int p = 0; p < passes; ++p) {
    int64_t start = MonotonicNanos();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    int64_t elapsed = MonotonicNanos() - start;
    if (elapsed < best) {
      best = elapsed;
    }
  }
  return static_cast<double>(best) / iters;
}

// Keeps results observable so the optimizer cannot delete the measured work.
uint64_t g_sink = 0;
inline void Keep(uint64_t v) { asm volatile("" : : "g"(v) : "memory"); }

class NullSink : public EmitSink {
 public:
  void EmitTuple(uint64_t, const Tuple& t) override { g_sink += t.size(); }
};

Tuple MakeWideTuple(int fields) {
  Tuple t;
  for (int i = 0; i < fields; ++i) {
    t.Append("col" + std::to_string(i), Value(static_cast<int64_t>(i)));
  }
  return t;
}

}  // namespace
}  // namespace pivot

int main() {
  using namespace pivot;

  BenchJson json("hotpath");
  printf("Hot-path micro-benchmarks (interned symbols / advice plans / COW baggage)\n\n");

  // ---- 1. Tuple field access ----
  {
    constexpr int kIters = 200'000;
    Tuple t = MakeWideTuple(16);
    SymbolId id8 = InternSymbol("col8");
    std::vector<SymbolId> proj_ids = InternSymbols({"col2", "col5", "col11"});

    double get_id = MeasureNs([&] { Keep(t.Get(id8).int_value()); }, kIters);
    double get_str = MeasureNs([&] { Keep(t.Get("col8").int_value()); }, kIters);
    double proj_id = MeasureNs([&] { Keep(t.Project(proj_ids).size()); }, kIters);

    printf("Tuple (16 fields):\n");
    printf("  Get         by id %7.1f ns   by string %7.1f ns\n", get_id, get_str);
    printf("  Project x3  by id %7.1f ns\n", proj_id);
    json.Report("tuple_get_by_id", get_id, "ns");
    json.Report("tuple_get_by_string", get_str, "ns");
    json.Report("tuple_project_by_id", proj_id, "ns");
  }

  // ---- 2. Advice plan execution ----
  {
    constexpr int kIters = 20'000;
    constexpr BagKey kBag = 42;

    // A representative program: observe two exports, compute a Let, filter,
    // unpack an earlier stage's bag and join, then pack + emit projections.
    Advice::Ptr advice =
        AdviceBuilder()
            .Observe({{"delta", "incr.delta"}, {"host", "incr.host"}})
            .Let("dbl", Expr::Binary(ExprOp::kAdd, Expr::Field("incr.delta"),
                                     Expr::Field("incr.delta")))
            .Filter(Expr::Binary(ExprOp::kGe, Expr::Field("incr.delta"),
                                 Expr::Literal(Value(int64_t{0}))))
            .Unpack(kBag)
            .Emit(7, {"incr.host", "dbl", "cl.procName"})
            .Build();
    AdvicePlan::Ptr plan = AdvicePlan::Compile(advice);

    NullSink sink;
    ProcessRuntime runtime;
    runtime.info = {"host", "bench", 1};
    runtime.sink = &sink;
    ExecutionContext ctx(&runtime);
    // One joined-in tuple, as if packed by an earlier stage over an RPC.
    ctx.baggage().Pack(kBag, BagSpec::First(1),
                       Tuple{{"cl.procName", Value(std::string("client"))}});
    Tuple exports{{"delta", Value(int64_t{4096})},
                  {"host", Value(std::string("dn01"))}};

    double planned = MeasureNs([&] { plan->Execute(&ctx, exports); }, kIters);
    printf("\nAdvice execution (observe+let+filter+unpack+emit):\n");
    printf("  advice plan %8.1f ns/op\n", planned);
    json.Report("advice_plan", planned, "ns");
  }

  // ---- 3. Serialize: dirty vs clean (memoized encodings) ----
  double serialize_speedup = 0.0;
  {
    constexpr int kIters = 2'000;
    constexpr BagKey kBag = 900;

    // 32 tuples frozen in an inactive instance (as after a Split) plus 32 in
    // the active instance — the shape of baggage mid-request after one branch.
    Baggage baggage;
    for (int i = 0; i < 32; ++i) {
      baggage.Pack(kBag, BagSpec::All(),
                   Tuple{{"v" + std::to_string(i), Value(static_cast<int64_t>(i))}});
    }
    auto [left, right] = baggage.Split();
    Baggage bag = std::move(left);
    for (int i = 0; i < 32; ++i) {
      bag.Pack(kBag + 1, BagSpec::All(),
               Tuple{{"w" + std::to_string(i), Value(static_cast<int64_t>(i))}});
    }
    Tuple dirt{{"dirt", Value(int64_t{1})}};

    // Dirty: every iteration invalidates the active instance's cached
    // encoding (kRecentN keeps the size constant), so Serialize re-encodes
    // the active instance; the frozen inactive instance stays memoized. It is
    // Pack+Serialize less the Pack alone. Clean: nothing changed since the
    // last Serialize, so every instance's encoding (active included) is
    // served from cache. All three loops are timed alike, a whole loop per
    // pass with no clock read inside, and their passes interleave so each
    // side samples the same machine state; each keeps its best pass.
    auto pack = [&] { bag.Pack(kBag + 2, BagSpec::Recent(1), dirt); };
    auto serialize = [&] { g_sink += bag.Serialize().size(); };
    auto time_loop = [](const std::function<void()>& fn) {
      const int64_t start = MonotonicNanos();
      for (int i = 0; i < kIters; ++i) {
        fn();
      }
      return MonotonicNanos() - start;
    };
    int64_t pack_serialize = INT64_MAX;
    int64_t pack_only = INT64_MAX;
    int64_t cached = INT64_MAX;
    for (int p = 0; p < 16; ++p) {
      pack_serialize = std::min(pack_serialize, time_loop([&] {
                                  pack();
                                  serialize();
                                }));
      pack_only = std::min(pack_only, time_loop(pack));
      serialize();  // Warm the cache.
      cached = std::min(cached, time_loop(serialize));
    }
    const double dirty = static_cast<double>(pack_serialize - pack_only) / kIters;
    const double clean = static_cast<double>(cached) / kIters;

    serialize_speedup = dirty / clean;
    printf("\nBaggage::Serialize (64 tuples, 1 frozen + 1 active instance):\n");
    printf("  dirty (active re-encoded) %8.1f ns\n", dirty);
    printf("  clean (fully memoized)    %8.1f ns   (%.1fx)\n", clean, serialize_speedup);
    json.Report("serialize_dirty", dirty, "ns");
    json.Report("serialize_clean", clean, "ns");
    json.Report("serialize_clean_speedup", serialize_speedup, "x");
  }

  // ---- 4. Aggregate merge: a report decoded, merged, or decoded into the total ----
  {
    constexpr int kTotalGroups = 1 << 16;
    constexpr int kReportRows = 6'000;
    constexpr int kIters = 20;
    const ResultPlan plan{{"s.key"}, {{AggFn::kCount, "", "COUNT", false}}};
    auto key = [](uint64_t i) { return Value("key-" + std::to_string(100'000 + i)); };
    ResultSet total(plan);
    for (int i = 0; i < kTotalGroups; ++i) {
      total.AddInput(Tuple{{"s.key", key(static_cast<uint64_t>(i))}});
    }
    // A report of distinct keys drawn from the total's, each counted a few
    // times, as an agent's interval is.
    Rng rng(25);
    ResultSet interval(plan);
    while (interval.size() < static_cast<size_t>(kReportRows)) {
      const Tuple t{{"s.key", key(rng.NextBelow(kTotalGroups))}};
      for (uint64_t n = 1 + rng.NextBelow(4); n > 0; --n) {
        interval.AddInput(t);
      }
    }
    std::vector<uint8_t> report;
    interval.Encode(&report);
    const std::vector<std::string> names = interval.ColumnNames();
    SetFrame frame;
    size_t pos = 0;
    if (!SetFrame::Get(report.data(), report.size(), &pos, &frame)) {
      return 1;
    }
    auto decoded = [&] {
      ResultSet set = total.EmptyLike();
      g_sink += set.DecodeNamed(names, frame) ? set.size() : 0;
      return set;
    };
    const double decode = MeasureNs([&] { decoded(); }, kIters) / kReportRows;
    const double decode_merge =
        MeasureNs([&] { total.Absorb(decoded()); }, kIters) / kReportRows;
    const double merge = decode_merge - decode;
    // How a frontend takes a report: decoded straight into its total.
    const double into_total =
        MeasureNs([&] { g_sink += total.DecodeNamed(names, frame) ? 1 : 0; }, kIters) /
        kReportRows;
    printf("\nAggregate merge (%d-row COUNT report, %d-group total):\n", kReportRows,
           kTotalGroups);
    printf("  decode into a fresh set     %7.1f ns/row\n", decode);
    printf("  merge into the total        %7.1f ns/row\n", merge);
    printf("  report into the total       %7.1f ns/row\n", into_total);
    json.Report("agg_report_decode_ns_per_row", decode, "ns");
    json.Report("agg_merge_ns_per_row", merge, "ns");
    json.Report("agg_report_into_total_ns_per_row", into_total, "ns");
  }

  json.Write();

  if (serialize_speedup < kMinSerializeSpeedup) {
    printf("\nFAIL: clean serialize only %.1fx faster than dirty (need >= %.1fx)\n",
           serialize_speedup, kMinSerializeSpeedup);
    return 1;
  }
  printf("\nPASS: clean serialize %.1fx faster than dirty (>= %.1fx required)\n",
         serialize_speedup, kMinSerializeSpeedup);
  return 0;
}
