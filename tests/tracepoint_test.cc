#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/tracepoint.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

class TracepointTest : public ::testing::Test {
 protected:
  TracepointTest() : proc_("A", "DataNode", &clock_), ctx_(&proc_.runtime) {}

  ManualClock clock_;
  FakeProcess proc_;
  ExecutionContext ctx_;
  TracepointRegistry registry_;
};

TEST_F(TracepointTest, DefineAndFind) {
  auto tp = registry_.Define(Def("X", {"v"}));
  ASSERT_TRUE(tp.ok());
  EXPECT_EQ(registry_.Find("X"), *tp);
  EXPECT_EQ(registry_.Find("Y"), nullptr);
}

TEST_F(TracepointTest, DuplicateDefinitionRejected) {
  ASSERT_TRUE(registry_.Define(Def("X", {"v"})).ok());
  Result<Tracepoint*> dup = registry_.Define(Def("X", {"w"}));
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST_F(TracepointTest, NamesSorted) {
  ASSERT_TRUE(registry_.Define(Def("B", {})).ok());
  ASSERT_TRUE(registry_.Define(Def("A", {})).ok());
  EXPECT_EQ(registry_.Names(), (std::vector<std::string>{"A", "B"}));
}

TEST_F(TracepointTest, UnwovenTracepointDoesNothing) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  EXPECT_FALSE(tp->enabled());
  tp->Invoke(&ctx_, {{"v", Value(int64_t{1})}});
  EXPECT_EQ(proc_.sink.total(), 0u);
  EXPECT_TRUE(ctx_.baggage().IsTrivial());
}

TEST_F(TracepointTest, WeaveRunsAdviceWithDefaultExports) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr advice = AdviceBuilder()
                           .Observe({{"v", "x.v"},
                                     {"host", "x.host"},
                                     {"procname", "x.procname"},
                                     {"time", "x.time"},
                                     {"tracepoint", "x.tracepoint"}})
                           .Emit(1, {})
                           .Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", advice}}).ok());
  EXPECT_TRUE(tp->enabled());

  clock_.now = 777;
  tp->Invoke(&ctx_, {{"v", Value(int64_t{5})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  const Tuple& t = proc_.sink.emitted(1)[0];
  EXPECT_EQ(t.Get("x.v").int_value(), 5);
  EXPECT_EQ(t.Get("x.host").string_value(), "A");
  EXPECT_EQ(t.Get("x.procname").string_value(), "DataNode");
  EXPECT_EQ(t.Get("x.time").int_value(), 777);
  EXPECT_EQ(t.Get("x.tracepoint").string_value(), "X");
}

TEST_F(TracepointTest, WovenFireCarriesExactlyTheDefaultExports) {
  // No declared exports and none passed: the tuple the woven advice runs on
  // (which the trace recorder captures) holds exactly kDefaultExports, in
  // table order, with the table's types.
  Tracepoint* tp = *registry_.Define(Def("X", {}));
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", AdviceBuilder().Emit(1, {}).Build()}}).ok());
  TraceRecorder recorder;
  ctx_.StartTrace(&recorder);
  tp->Invoke(&ctx_, {});
  EXPECT_EQ(tp->woven_fires(), 1u);
  ASSERT_EQ(recorder.observed().size(), 1u);
  const Tuple& exports = recorder.observed()[0].exports;
  ASSERT_EQ(exports.size(), std::size(kDefaultExports));
  for (size_t i = 0; i < exports.size(); ++i) {
    EXPECT_EQ(exports.fields()[i].name(), kDefaultExports[i].name) << i;
    EXPECT_EQ(exports.fields()[i].value.type(), kDefaultExports[i].type) << i;
  }
}

// Woven advice reads exports through an ExportView; these pin that the view
// reads what the materialized tuple (site fields, then kDefaultExports)
// holds, and that the clock is read at most once per fire.
Advice::Ptr ObserveAndEmit(uint64_t query, std::vector<std::pair<std::string, std::string>> vars) {
  return AdviceBuilder().Observe(std::move(vars)).Emit(query, {}).Build();
}

std::vector<std::pair<std::string, std::string>> AllDefaults(const std::string& alias) {
  std::vector<std::pair<std::string, std::string>> vars;
  for (const DefaultExport& d : kDefaultExports) {
    vars.emplace_back(d.name, alias + "." + d.name);
  }
  return vars;
}

TEST_F(TracepointTest, EachDefaultExportReadsTheMaterializedValue) {
  Tracepoint* tp = *registry_.Define(Def("X", {}));
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", ObserveAndEmit(1, AllDefaults("x"))}}).ok());
  TraceRecorder recorder;
  ctx_.StartTrace(&recorder);
  clock_.now = 4242;
  tp->Invoke(&ctx_, {});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  ASSERT_EQ(recorder.observed().size(), 1u);
  const Tuple& read = proc_.sink.emitted(1)[0];
  const Tuple& materialized = recorder.observed()[0].exports;
  ASSERT_EQ(read.size(), std::size(kDefaultExports));
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read.field(i).value, materialized.Get(kDefaultExports[i].name))
        << kDefaultExports[i].name;
    EXPECT_EQ(read.field(i).value.type(), kDefaultExports[i].type) << kDefaultExports[i].name;
  }
  EXPECT_EQ(read.Get("x.host"), Value("A"));
  EXPECT_EQ(read.Get("x.procname"), Value("DataNode"));
  EXPECT_EQ(read.Get("x.procid"), Value(int64_t{1}));
  EXPECT_EQ(read.Get("x.timestamp"), Value(int64_t{4242}));
  EXPECT_EQ(read.Get("x.time"), Value(int64_t{4242}));
  EXPECT_EQ(read.Get("x.tracepoint"), Value("X"));
}

TEST_F(TracepointTest, OneClockReadPerFireSharedByEveryPlan) {
  // A clock that moves on every read: two reads in one fire would disagree.
  int clock_reads = 0;
  proc_.runtime.now_micros = [&clock_reads] { return int64_t{1000} * ++clock_reads; };
  Tracepoint* tp = *registry_.Define(Def("X", {}));
  ASSERT_TRUE(registry_
                  .WeaveQuery(1, {{"X", ObserveAndEmit(1, {{"timestamp", "a.ts"},
                                                           {"time", "a.time"}})}})
                  .ok());
  ASSERT_TRUE(registry_
                  .WeaveQuery(2, {{"X", ObserveAndEmit(2, {{"time", "b.time"},
                                                           {"timestamp", "b.ts"}})}})
                  .ok());
  for (int fire = 1; fire <= 3; ++fire) {
    tp->Invoke(&ctx_, {});
    EXPECT_EQ(clock_reads, fire);
  }
  for (uint64_t query : {1, 2}) {
    ASSERT_EQ(proc_.sink.emitted(query).size(), 3u);
    for (size_t fire = 0; fire < 3; ++fire) {
      const Tuple& t = proc_.sink.emitted(query)[fire];
      const Value expected(static_cast<int64_t>(1000 * (fire + 1)));
      EXPECT_EQ(t.field(0).value, expected) << "query " << query << " fire " << fire;
      EXPECT_EQ(t.field(1).value, expected) << "query " << query << " fire " << fire;
    }
  }
}

TEST_F(TracepointTest, FireThatReadsNoTimeNeverReadsTheClock) {
  int clock_reads = 0;
  proc_.runtime.now_micros = [&clock_reads] { return int64_t{++clock_reads}; };
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  ASSERT_TRUE(registry_
                  .WeaveQuery(1, {{"X", ObserveAndEmit(1, {{"v", "x.v"},
                                                           {"host", "x.host"},
                                                           {"tracepoint", "x.tp"}})}})
                  .ok());
  tp->Invoke(&ctx_, {{"v", Value(int64_t{3})}});
  tp->Invoke(&ctx_, {{"v", Value(int64_t{4})}});
  EXPECT_EQ(proc_.sink.emitted(1).size(), 2u);
  EXPECT_EQ(clock_reads, 0);
}

TEST_F(TracepointTest, SiteExportShadowsTheDefaultOfTheSameName) {
  Tracepoint* tp = *registry_.Define(Def("X", {"host", "time"}));
  ASSERT_TRUE(registry_
                  .WeaveQuery(1, {{"X", ObserveAndEmit(1, {{"host", "x.host"},
                                                           {"time", "x.time"},
                                                           {"procname", "x.procname"}})}})
                  .ok());
  clock_.now = 99;
  tp->Invoke(&ctx_, {{"host", Value("site-host")}, {"time", Value(int64_t{7})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  const Tuple& t = proc_.sink.emitted(1)[0];
  EXPECT_EQ(t.Get("x.host"), Value("site-host"));
  EXPECT_EQ(t.Get("x.time"), Value(int64_t{7}));
  EXPECT_EQ(t.Get("x.procname"), Value("DataNode"));  // Not shadowed.
}

TEST_F(TracepointTest, RecorderRecordsEveryDefaultAfterTheSiteFields) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", ObserveAndEmit(1, {{"v", "x.v"}})}}).ok());
  TraceRecorder recorder;
  ctx_.StartTrace(&recorder);
  clock_.now = 55;
  tp->Invoke(&ctx_, {{"v", Value(int64_t{8})}});
  ASSERT_EQ(recorder.observed().size(), 1u);
  EXPECT_EQ(recorder.observed()[0].exports.ToString(),
            "(v=8, host=A, procname=DataNode, procid=1, timestamp=55, time=55, tracepoint=X)");
}

TEST_F(TracepointTest, WeavingCompilesOnlyTheNewQuerysAdvice) {
  ASSERT_TRUE(registry_.Define(Def("X", {"v"})).ok());
  ASSERT_TRUE(registry_.Define(Def("Y", {"w"})).ok());
  auto emit_v = [](uint64_t q) {
    return AdviceBuilder().Observe({{"v", "x.v"}}).Emit(q, {}).Build();
  };
  auto emit_w = [](uint64_t q) {
    return AdviceBuilder().Observe({{"w", "y.w"}}).Emit(q, {}).Build();
  };
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", emit_v(1)}, {"Y", emit_w(1)}}).ok());

  // Query 2 weaves two programs at tracepoints that already run query 1's
  // plans. Exactly those two are compiled; query 1's plans are shared.
  telemetry::Counter& binds = telemetry::Metrics().GetCounter("plan.bind_count");
  const uint64_t before = binds.value();
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", emit_v(2)}, {"Y", emit_w(2)}}).ok());
  EXPECT_EQ(binds.value() - before, 2u);

  // Unweaving republishes both sites without compiling anything.
  registry_.UnweaveQuery(1);
  EXPECT_EQ(binds.value() - before, 2u);
  registry_.Find("X")->Invoke(&ctx_, {{"v", Value(int64_t{1})}});
  registry_.Find("Y")->Invoke(&ctx_, {{"w", Value(int64_t{2})}});
  EXPECT_EQ(proc_.sink.emitted(1).size(), 0u);
  EXPECT_EQ(proc_.sink.emitted(2).size(), 2u);
}

TEST_F(TracepointTest, UnweaveDisables) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", advice}}).ok());
  tp->Invoke(&ctx_, {{"v", Value(int64_t{1})}});
  EXPECT_EQ(proc_.sink.total(), 1u);

  registry_.UnweaveQuery(1);
  EXPECT_FALSE(tp->enabled());
  tp->Invoke(&ctx_, {{"v", Value(int64_t{2})}});
  EXPECT_EQ(proc_.sink.total(), 1u);  // Unchanged.
}

TEST_F(TracepointTest, UnweaveUnknownQueryIsIdempotent) {
  registry_.UnweaveQuery(12345);  // No crash, no effect.
}

TEST_F(TracepointTest, MultipleQueriesShareTracepoint) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr a1 = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  Advice::Ptr a2 = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(2, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", a1}}).ok());
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", a2}}).ok());
  EXPECT_EQ(registry_.WovenQueries(), (std::vector<uint64_t>{1, 2}));

  tp->Invoke(&ctx_, {{"v", Value(int64_t{9})}});
  EXPECT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_EQ(proc_.sink.emitted(2).size(), 1u);

  registry_.UnweaveQuery(1);
  tp->Invoke(&ctx_, {{"v", Value(int64_t{10})}});
  EXPECT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_EQ(proc_.sink.emitted(2).size(), 2u);
}

TEST_F(TracepointTest, NullAdviceFailsAtomically) {
  ASSERT_TRUE(registry_.Define(Def("X", {"v"})).ok());
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  Status s = registry_.WeaveQuery(1, {{"X", advice}, {"Y", nullptr}});
  EXPECT_FALSE(s.ok());
  // Nothing was woven.
  EXPECT_FALSE(registry_.Find("X")->enabled());
  EXPECT_TRUE(registry_.WovenQueries().empty());
}

TEST_F(TracepointTest, DeferredWeavingAppliesOnLateDefinition) {
  // A standing query can name a tracepoint whose subsystem has not
  // initialized yet; the advice weaves the moment the tracepoint is defined.
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"LATER", advice}}).ok());
  Tracepoint* tp = *registry_.Define(Def("LATER", {"v"}));
  EXPECT_TRUE(tp->enabled());
  tp->Invoke(&ctx_, {{"v", Value(int64_t{1})}});
  EXPECT_EQ(proc_.sink.emitted(1).size(), 1u);
}

// Every process receives a query's full advice but hosts only some of its
// tracepoints. Advice at a tracepoint the registry does not define binds no
// bag schema and compiles no plan; it is bound when the tracepoint arrives,
// under the schema the query's own pack gives its bag.
TEST_F(TracepointTest, WeaveCompilesNothingForUndefinedTracepoints) {
  telemetry::Counter& binds = telemetry::Metrics().GetCounter("plan.bind_count");
  Advice::Ptr pack = AdviceBuilder()
                         .Observe({{"v", "a.v"}})
                         .Pack(100, BagSpec::First(1), {"a.v"})
                         .Build();
  Advice::Ptr emit = AdviceBuilder().Observe({{"w", "b.w"}}).Unpack(100).Emit(1, {}).Build();
  const uint64_t before = binds.value();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", pack}, {"Y", emit}}).ok());
  EXPECT_EQ(binds.value(), before);
  EXPECT_EQ(registry_.WovenQueries(), std::vector<uint64_t>{1});

  // The unpacking side arrives first, then the packing side.
  Tracepoint* y = *registry_.Define(Def("Y", {"w"}));
  EXPECT_EQ(binds.value() - before, 1u);
  EXPECT_EQ(y->woven_plans(), 1u);
  Tracepoint* x = *registry_.Define(Def("X", {"v"}));
  EXPECT_EQ(binds.value() - before, 2u);

  // The bag crosses the wire between the two, so Y reads it by its schema.
  x->Invoke(&ctx_, {{"v", Value(int64_t{3})}});
  Result<Baggage> arrived = Baggage::Deserialize(ctx_.baggage().Serialize());
  ASSERT_TRUE(arrived.ok());
  ExecutionContext remote(&proc_.runtime);
  remote.set_baggage(std::move(arrived).value());
  y->Invoke(&remote, {{"w", Value(int64_t{4})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_EQ(proc_.sink.emitted(1)[0].Get("a.v").int_value(), 3);
  EXPECT_EQ(proc_.sink.emitted(1)[0].Get("b.w").int_value(), 4);
}

TEST_F(TracepointTest, DuplicateQueryIdRejected) {
  ASSERT_TRUE(registry_.Define(Def("X", {"v"})).ok());
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", advice}}).ok());
  EXPECT_FALSE(registry_.WeaveQuery(1, {{"X", advice}}).ok());
}

TEST_F(TracepointTest, SameQueryWeavesMultipleTracepoints) {
  ASSERT_TRUE(registry_.Define(Def("X", {"v"})).ok());
  ASSERT_TRUE(registry_.Define(Def("Y", {"w"})).ok());
  Advice::Ptr pack = AdviceBuilder()
                         .Observe({{"v", "a.v"}})
                         .Pack(100, BagSpec::First(1), {"a.v"})
                         .Build();
  Advice::Ptr emit = AdviceBuilder().Observe({{"w", "b.w"}}).Unpack(100).Emit(1, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", pack}, {"Y", emit}}).ok());

  registry_.Find("X")->Invoke(&ctx_, {{"v", Value(int64_t{3})}});
  registry_.Find("Y")->Invoke(&ctx_, {{"w", Value(int64_t{4})}});
  ASSERT_EQ(proc_.sink.emitted(1).size(), 1u);
  EXPECT_EQ(proc_.sink.emitted(1)[0].Get("a.v").int_value(), 3);
  EXPECT_EQ(proc_.sink.emitted(1)[0].Get("b.w").int_value(), 4);
}

// An identical kAll pack woven by two queries under one bag key: the shape
// the frontend gives two queries whose pack stages are equal.
Advice::Ptr PackAll(BagKey bag) {
  return AdviceBuilder().Observe({{"v", "a.v"}}).Pack(bag, BagSpec::All(), {"a.v"}).Build();
}

TEST_F(TracepointTest, IdenticalPackProgramsShareOnePlan) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", PackAll(256)}}).ok());
  telemetry::Counter& binds = telemetry::Metrics().GetCounter("plan.bind_count");
  const uint64_t before = binds.value();
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", PackAll(256)}}).ok());
  EXPECT_EQ(binds.value(), before);  // Shared, not compiled again.
  EXPECT_EQ(tp->woven_plans(), 1u);
  EXPECT_EQ(registry_.WovenQueries(), (std::vector<uint64_t>{1, 2}));

  // Two packers would put the tuple into the bag twice.
  tp->Invoke(&ctx_, {{"v", Value(int64_t{7})}});
  ASSERT_EQ(UnpackCopy(ctx_.baggage(), 256).size(), 1u);
  EXPECT_EQ(UnpackCopy(ctx_.baggage(), 256)[0].Get("a.v").int_value(), 7);
}

TEST_F(TracepointTest, SharedPackPlanOutlivesAllButItsLastQuery) {
  for (bool minter_first : {true, false}) {
    SCOPED_TRACE(minter_first ? "minting query unwoven first" : "sharing query unwoven first");
    TracepointRegistry registry;
    Tracepoint* tp = *registry.Define(Def("X", {"v"}));
    ASSERT_TRUE(registry.WeaveQuery(1, {{"X", PackAll(256)}}).ok());
    ASSERT_TRUE(registry.WeaveQuery(2, {{"X", PackAll(256)}}).ok());

    registry.UnweaveQuery(minter_first ? 1 : 2);
    EXPECT_EQ(tp->woven_plans(), 1u);
    EXPECT_EQ(registry.WovenQueries(), std::vector<uint64_t>{minter_first ? 2u : 1u});
    ExecutionContext ctx(&proc_.runtime);
    tp->Invoke(&ctx, {{"v", Value(int64_t{1})}});
    EXPECT_EQ(UnpackCopy(ctx.baggage(), 256).size(), 1u);

    registry.UnweaveQuery(minter_first ? 2 : 1);
    EXPECT_FALSE(tp->enabled());
    EXPECT_EQ(tp->woven_plans(), 0u);
    EXPECT_TRUE(registry.WovenQueries().empty());
  }
}

TEST_F(TracepointTest, DifferentProgramUnderSameKeyIsNotShared) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr filtered = AdviceBuilder()
                             .Observe({{"v", "a.v"}})
                             .Filter(Expr::Binary(ExprOp::kGt, Expr::Field("a.v"),
                                                  Expr::Literal(Value(int64_t{0}))))
                             .Pack(256, BagSpec::All(), {"a.v"})
                             .Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", PackAll(256)}}).ok());
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", filtered}}).ok());
  EXPECT_EQ(tp->woven_plans(), 2u);
  tp->Invoke(&ctx_, {{"v", Value(int64_t{5})}});
  EXPECT_EQ(UnpackCopy(ctx_.baggage(), 256).size(), 2u);  // Each program packed once.

  // Unweaving one program leaves the other in place.
  registry_.UnweaveQuery(2);
  EXPECT_EQ(tp->woven_plans(), 1u);
  EXPECT_EQ(registry_.WovenQueries(), std::vector<uint64_t>{1});
  registry_.UnweaveQuery(1);
  EXPECT_FALSE(tp->enabled());
  EXPECT_TRUE(registry_.WovenQueries().empty());
}

TEST_F(TracepointTest, IdenticalProgramSharesWithAnyWovenEntry) {
  // The program that first packed the key is gone; an identical copy of the
  // one still woven under that key shares its plan.
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr filtered = AdviceBuilder()
                             .Observe({{"v", "a.v"}})
                             .Filter(Expr::Binary(ExprOp::kGt, Expr::Field("a.v"),
                                                  Expr::Literal(Value(int64_t{0}))))
                             .Pack(256, BagSpec::All(), {"a.v"})
                             .Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", PackAll(256)}}).ok());
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", filtered}}).ok());
  registry_.UnweaveQuery(1);
  ASSERT_TRUE(registry_.WeaveQuery(3, {{"X", filtered}}).ok());
  EXPECT_EQ(tp->woven_plans(), 1u);
  tp->Invoke(&ctx_, {{"v", Value(int64_t{5})}});
  EXPECT_EQ(UnpackCopy(ctx_.baggage(), 256).size(), 1u);
}

telemetry::Counter& SetsRetired() {
  return telemetry::Metrics().GetCounter("core.advice_sets_retired");
}
telemetry::Counter& SetsFreed() { return telemetry::Metrics().GetCounter("core.advice_sets_freed"); }

// Retired advice sets not yet freed, process-wide.
int64_t HeldRetiredSets() {
  return static_cast<int64_t>(SetsRetired().value()) - static_cast<int64_t>(SetsFreed().value());
}

Advice::Ptr EmitV(uint64_t query_id) {
  return AdviceBuilder().Observe({{"v", "x.v"}}).Emit(query_id, {}).Build();
}

TEST_F(TracepointTest, ChurnKeepsOnlyTheCurrentSets) {
  Tracepoint* x = *registry_.Define(Def("X", {"v"}));
  Tracepoint* y = *registry_.Define(Def("Y", {"v"}));
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", PackAll(256)}, {"Y", EmitV(1)}}).ok());
  const uint64_t retired_before = SetsRetired().value();
  const uint64_t freed_before = SetsFreed().value();

  constexpr uint64_t kCycles = 10'000;
  for (uint64_t q = 2; q < 2 + kCycles; ++q) {
    ASSERT_TRUE(
        registry_.WeaveQuery(q, {{"X", PackAll(q * kBagKeysPerQuery)}, {"Y", EmitV(q)}}).ok());
    ExecutionContext ctx(&proc_.runtime);
    x->Invoke(&ctx, {{"v", Value(int64_t{1})}});
    y->Invoke(&ctx, {{"v", Value(int64_t{1})}});
    registry_.UnweaveQuery(q);
  }

  // Each weave and each unweave displaced the set of X and the set of Y,
  // and every displaced set was freed: the registry holds the two current
  // sets only.
  const uint64_t retired = SetsRetired().value() - retired_before;
  EXPECT_EQ(retired, 4 * kCycles);
  EXPECT_EQ(SetsFreed().value() - freed_before, retired);
  EXPECT_EQ(x->woven_plans(), 1u);
  EXPECT_EQ(y->woven_plans(), 1u);
  EXPECT_EQ(registry_.WovenQueries(), std::vector<uint64_t>{1});
  EXPECT_EQ(proc_.sink.emitted(1).size(), kCycles);
  EXPECT_EQ(proc_.sink.total(), 2 * kCycles);
}

// A sink that holds the first tuple emitted into it until released, keeping
// that fire in flight.
class HoldingSink : public EmitSink {
 public:
  void EmitTuple(uint64_t, const Tuple&) override {
    if (armed_.exchange(false)) {
      holding_.store(true);
      while (!released_.load()) {
        std::this_thread::yield();
      }
    }
  }
  void WaitUntilHolding() const {
    while (!holding_.load()) {
      std::this_thread::yield();
    }
  }
  void Release() { released_.store(true); }

 private:
  std::atomic<bool> armed_{true};
  std::atomic<bool> holding_{false};
  std::atomic<bool> released_{false};
};

TEST_F(TracepointTest, DisplacedSetLivesUntilItsReadersReturn) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  HoldingSink sink;
  ProcessRuntime runtime;
  runtime.sink = &sink;
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", EmitV(1)}}).ok());

  size_t reader_slot = 0;
  std::thread reader([&] {
    reader_slot = ThreadSlot();
    ExecutionContext ctx(&runtime);
    tp->Invoke(&ctx, {{"v", Value(int64_t{1})}});
  });
  sink.WaitUntilHolding();
  const int64_t held_before = HeldRetiredSets();
  registry_.UnweaveQuery(1);  // Displaces the set the reader is running.
  EXPECT_EQ(HeldRetiredSets() - held_before, 1);

  // A thread sharing the reader's slot fires and returns. The slot is still
  // in flight for the reader, so neither displaced set may be freed.
  ASSERT_TRUE(registry_.WeaveQuery(2, {{"X", EmitV(2)}}).ok());
  bool shared = false;
  for (size_t i = 0; i < 2 * kThreadSlots && !shared; ++i) {
    std::thread([&] {
      if (ThreadSlot() == reader_slot) {
        shared = true;
        ExecutionContext ctx(&runtime);
        tp->Invoke(&ctx, {{"v", Value(int64_t{2})}});
      }
    }).join();
  }
  ASSERT_TRUE(shared);
  registry_.UnweaveQuery(2);
  EXPECT_EQ(HeldRetiredSets() - held_before, 2);

  // Once the reader returns, the next weave frees both.
  sink.Release();
  reader.join();
  ASSERT_TRUE(registry_.WeaveQuery(3, {{"X", EmitV(3)}}).ok());
  EXPECT_EQ(HeldRetiredSets() - held_before, 0);
  EXPECT_EQ(tp->woven_plans(), 1u);
  registry_.UnweaveQuery(3);
  EXPECT_EQ(HeldRetiredSets() - held_before, 0);
}

TEST_F(TracepointTest, InvokeWithNullContextIsSafe) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  Advice::Ptr advice = AdviceBuilder().Observe({{"v", "x.v"}}).Emit(1, {}).Build();
  ASSERT_TRUE(registry_.WeaveQuery(1, {{"X", advice}}).ok());
  tp->Invoke(nullptr, {{"v", Value(int64_t{1})}});  // Advice runs but no-ops.
  EXPECT_EQ(proc_.sink.total(), 0u);
}

TEST_F(TracepointTest, RecordingCapturesObservations) {
  Tracepoint* tp = *registry_.Define(Def("X", {"v"}));
  TraceRecorder recorder;
  ctx_.StartTrace(&recorder);
  tp->Invoke(&ctx_, {{"v", Value(int64_t{1})}});
  tp->Invoke(&ctx_, {{"v", Value(int64_t{2})}});
  ASSERT_EQ(recorder.observed().size(), 2u);
  EXPECT_EQ(recorder.observed()[0].tracepoint, "X");
  EXPECT_EQ(recorder.observed()[0].exports.Get("v").int_value(), 1);
  // Events are causally ordered within the request.
  EXPECT_TRUE(recorder.graph(0)->HappenedBefore(recorder.observed()[0].event,
                                                recorder.observed()[1].event));
}

}  // namespace
}  // namespace pivot
