// Fig 10: baggage micro-benchmarks.
//
// "Latency micro-benchmark results for packing, unpacking, serializing, and
// deserializing randomly-generated 8-byte tuples", for baggage already
// containing 1..256 tuples. The paper reports (approximately):
//   (a) pack 1 tuple:      ~0.5 µs  ->  ~4.5 µs at 256 tuples
//   (b) unpack all tuples: ~0.3 µs  ->  ~0.9 µs
//   (c) serialize:         ~0.4 µs  ->  ~13 µs
//   (d) deserialize:       ~1 µs    ->  ~20 µs
// The reproduction target is the *shape*: near-constant-per-tuple costs,
// (de)serialization linear in tuple count, deserialize > serialize.

#include <benchmark/benchmark.h>


#include "bench/bench_util.h"
#include "src/common/clock.h"
#include "src/common/rand.h"
#include "src/core/baggage.h"
#include "src/core/tracepoint.h"

namespace pivot {
namespace {

constexpr BagKey kBag = 7;

// One 8-byte tuple: a single int64 column, matching the paper's setup.
Tuple RandomTuple(Rng* rng) {
  return Tuple{{"v", Value(static_cast<int64_t>(rng->NextUint64()))}};
}

Baggage MakeBaggage(int tuples, Rng* rng) {
  Baggage baggage;
  for (int i = 0; i < tuples; ++i) {
    baggage.Pack(kBag, BagSpec::All(), RandomTuple(rng));
  }
  return baggage;
}

void BM_Pack1Tuple(benchmark::State& state) {
  Rng rng(1);
  Baggage baggage = MakeBaggage(static_cast<int>(state.range(0)), &rng);
  Tuple t = RandomTuple(&rng);
  // Manual timing: the baggage copy that keeps the tuple count fixed at N
  // across iterations is excluded from the measurement.
  for (auto _ : state) {
    Baggage copy = baggage;
    int64_t start = MonotonicNanos();
    copy.Pack(kBag, BagSpec::All(), t);
    int64_t end = MonotonicNanos();
    benchmark::DoNotOptimize(copy);
    state.SetIterationTime(static_cast<double>(end - start) / 1e9);
  }
}

void BM_UnpackAll(benchmark::State& state) {
  Rng rng(2);
  Baggage baggage = MakeBaggage(static_cast<int>(state.range(0)), &rng);
  std::vector<Tuple> buffer;
  for (auto _ : state) {
    const std::vector<Tuple>& tuples = baggage.Unpack(kBag, nullptr, &buffer);
    benchmark::DoNotOptimize(tuples);
  }
}

void BM_Serialize(benchmark::State& state) {
  Rng rng(3);
  Baggage baggage = MakeBaggage(static_cast<int>(state.range(0)), &rng);
  size_t bytes = baggage.Serialize().size();
  for (auto _ : state) {
    auto out = baggage.Serialize();
    benchmark::DoNotOptimize(out);
  }
  state.counters["serialized_bytes"] =
      benchmark::Counter(static_cast<double>(bytes), benchmark::Counter::kDefaults);
}

void BM_Deserialize(benchmark::State& state) {
  Rng rng(4);
  Baggage baggage = MakeBaggage(static_cast<int>(state.range(0)), &rng);
  std::vector<uint8_t> bytes = baggage.Serialize();
  // Deserialize parses only the framing; the receiving step decodes the
  // values when it unpacks them, so both are timed.
  const BagSchema schema(BagSpec::All(), {InternSymbol("v")});
  std::vector<Tuple> buffer;
  for (auto _ : state) {
    Result<Baggage> decoded = Baggage::Deserialize(bytes);
    benchmark::DoNotOptimize(decoded->Unpack(kBag, &schema, &buffer));
  }
}

// The §5 zero-probe-effect claim: an unwoven tracepoint costs one relaxed
// atomic load and a branch. (Our substitution for bytecode weaving makes
// this "near-zero" rather than literally zero; this measures the "near".)
void BM_DisabledTracepointInvoke(benchmark::State& state) {
  TracepointRegistry registry;
  TracepointDef def;
  def.name = "X";
  def.exports = {"v"};
  Tracepoint* tp = *registry.Define(std::move(def));
  ProcessRuntime runtime;
  runtime.info = {"host", "proc", 1};
  ExecutionContext ctx(&runtime);
  for (auto _ : state) {
    tp->Invoke(&ctx, {{"v", Value(int64_t{1})}});
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledTracepointInvoke);

void BM_EnabledTracepointCountQuery(benchmark::State& state) {
  // For contrast: a woven COUNT-style advice (observe + emit to a null sink).
  TracepointRegistry registry;
  TracepointDef def;
  def.name = "X";
  def.exports = {"v"};
  Tracepoint* tp = *registry.Define(std::move(def));
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  Status weave_status = registry.WeaveQuery(1, {{"X", advice}});
  (void)weave_status;
  ProcessRuntime runtime;
  runtime.info = {"host", "proc", 1};
  ExecutionContext ctx(&runtime);
  for (auto _ : state) {
    tp->Invoke(&ctx, {{"v", Value(int64_t{1})}});
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EnabledTracepointCountQuery);

void TupleRange(benchmark::internal::Benchmark* b) {
  for (int n : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    b->Arg(n);
  }
}

// Fixed iteration count: the untimed per-iteration baggage copy that keeps N
// constant would otherwise dominate wall-clock time at large N.
BENCHMARK(BM_Pack1Tuple)->Apply(TupleRange)->UseManualTime()->Iterations(20000);
BENCHMARK(BM_UnpackAll)->Apply(TupleRange);
BENCHMARK(BM_Serialize)->Apply(TupleRange);
BENCHMARK(BM_Deserialize)->Apply(TupleRange);

// Console reporter that also captures every run into a BenchJson, so
// check.sh/CI get BENCH_fig10_baggage.json alongside the usual table.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCaptureReporter(BenchJson* json) : json_(json) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (!run.error_occurred) {
        json_->Report(run.benchmark_name(), run.GetAdjustedRealTime(),
                      benchmark::GetTimeUnitString(run.time_unit));
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

 private:
  BenchJson* json_;
};

}  // namespace
}  // namespace pivot

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  pivot::BenchJson json("fig10_baggage");
  pivot::JsonCaptureReporter reporter(&json);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  json.Write();
  return 0;
}
