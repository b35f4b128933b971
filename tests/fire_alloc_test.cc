// Heap allocations per woven fire (docs/PERFORMANCE.md, "Fire path"). A
// counting global operator new shows that in steady state a fire allocates
// nothing of its own: plans read the exports in place, keep their working
// tuples across fires and join against a bag's rows by reference. The only
// allocations left are a packed bag's own storage.
//
// The same counter bounds the baggage operations a request runs between
// fires (Table 4's serialize, deserialize, split and join), and the growth of
// a set that many small sets decode into.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/bus/message_bus.h"
#include "src/core/aggregation.h"
#include "src/core/tracepoint.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* Allocate(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (size == 0) {
    size = 1;
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size, 0); }
void* operator new[](std::size_t size) { return Allocate(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace pivot {
namespace {

constexpr int kWarmupFires = 200;
constexpr int kMeasuredFires = 2000;

// Mean heap allocations per call of `fire`, after warm-up.
template <typename Fire>
double AllocationsPerFire(Fire fire) {
  for (int i = 0; i < kWarmupFires; ++i) {
    fire();
  }
  g_allocations.store(0);
  g_counting.store(true);
  for (int i = 0; i < kMeasuredFires; ++i) {
    fire();
  }
  g_counting.store(false);
  return static_cast<double>(g_allocations.load()) / kMeasuredFires;
}

// Mean heap allocations per call of `op` on a fresh state made by `make`,
// counting `op` only.
template <typename Make, typename Op>
double AllocationsPerOp(Make make, Op op) {
  for (int i = 0; i < kWarmupFires; ++i) {
    auto state = make();
    op(state);
  }
  g_allocations.store(0);
  for (int i = 0; i < kMeasuredFires; ++i) {
    auto state = make();
    g_counting.store(true);
    op(state);
    g_counting.store(false);
  }
  return static_cast<double>(g_allocations.load()) / kMeasuredFires;
}

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

// One process with its agent; queries are installed through a frontend, as
// in a deployment. The host name fits in std::string's small-string buffer
// (15 chars in libstdc++), so copying it into a tuple allocates nothing;
// a longer host would allocate once per observed copy.
class FireAllocTest : public ::testing::Test {
 protected:
  FireAllocTest() {
    for (const TracepointDef& def :
         {Def("DataNodeMetrics.incrBytesRead", {"delta"}), Def("Client.Op", {"op"}),
          Def("Server.Op", {"key"})}) {
      EXPECT_TRUE(schema_.Define(def).ok());
      EXPECT_TRUE(registry_.Define(def).ok());
    }
    runtime_.info = {"dn-1", "DataNode", 7};
    agent_ = std::make_unique<PTAgent>(&bus_, &registry_, runtime_.info);
    runtime_.sink = agent_.get();
    frontend_ = std::make_unique<Frontend>(&bus_, &schema_);
  }

  void Install(const std::string& query) {
    Result<uint64_t> id = frontend_->Install(query);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }

  Tracepoint* tp(const std::string& name) { return registry_.Find(name); }

  MessageBus bus_;
  TracepointRegistry schema_;
  TracepointRegistry registry_;
  ProcessRuntime runtime_;
  std::unique_ptr<PTAgent> agent_;
  std::unique_ptr<Frontend> frontend_;
};

TEST_F(FireAllocTest, Q3ShapedFireIntoAnExistingGroupAllocatesNothing) {
  Install(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select incr.host, SUM(incr.delta)");
  Tracepoint* incr = tp("DataNodeMetrics.incrBytesRead");
  ASSERT_TRUE(incr->enabled());
  ExecutionContext ctx(&runtime_);
  const std::vector<Tuple::Field> exports = {{"delta", Value(int64_t{8192})}};
  EXPECT_EQ(AllocationsPerFire([&] { incr->Invoke(&ctx, exports); }), 0.0);
  EXPECT_EQ(agent_->emitted_tuples(), uint64_t{kWarmupFires + kMeasuredFires});
}

TEST_F(FireAllocTest, UnpackSideOfAFirstJoinAllocatesNothing) {
  Install(
      "From s In Server.Op Join c In First(Client.Op) On c -> s GroupBy c.op "
      "Select c.op, COUNT");
  ExecutionContext ctx(&runtime_);
  tp("Client.Op")->Invoke(&ctx, {{"op", Value("get")}});
  ASSERT_EQ(ctx.baggage().TupleCount(), 1u);
  Tracepoint* server = tp("Server.Op");
  const std::vector<Tuple::Field> exports = {{"key", Value("k00042")}};
  EXPECT_EQ(AllocationsPerFire([&] { server->Invoke(&ctx, exports); }), 0.0);
  EXPECT_EQ(agent_->emitted_tuples(), uint64_t{kWarmupFires + kMeasuredFires});
}

TEST_F(FireAllocTest, PackSideAllocatesOnlyTheBagsStorage) {
  Install(
      "From s In Server.Op Join c In First(Client.Op) On c -> s GroupBy c.op "
      "Select c.op, COUNT");
  Tracepoint* client = tp("Client.Op");
  const std::vector<Tuple::Field> exports = {{"op", Value("get")}};
  // Each fire packs into a fresh request's baggage: the bag's map node, its
  // row vector and the packed tuple's fields are the bag's own storage.
  double per_fire = AllocationsPerFire([&] {
    ExecutionContext ctx(&runtime_);
    client->Invoke(&ctx, exports);
  });
  EXPECT_LE(per_fire, 3.0);
}

// ---- Baggage operations on a one-bag First baggage ----
//
// Upper bounds, pinned at the counts these operations read when the guard
// was added or last lowered (the value-only wire form: 5 → 2 and 6 → 3). A Split that encoded into the source's stale memo and then
// copied it into the frozen instance would cost Fork+Join one more.

ExecutionContext OneBagContext(ProcessRuntime* runtime) {
  ExecutionContext ctx(runtime);
  ctx.baggage().Pack(256, BagSpec::First(1), Tuple{{"c.op", Value("get")}});
  return ctx;
}

TEST_F(FireAllocTest, SerializeOfAnUnchangedBaggageAllocatesOnlyItsBytes) {
  ExecutionContext ctx = OneBagContext(&runtime_);
  ASSERT_FALSE(ctx.baggage().Serialize().empty());  // Fills the memo.
  EXPECT_LE(AllocationsPerFire([&] { ctx.baggage().Serialize(); }), 1.0);
}

TEST_F(FireAllocTest, DeserializeOfAOneBagBaggage) {
  const std::vector<uint8_t> bytes = OneBagContext(&runtime_).baggage().Serialize();
  // The instance's memo and the bag's map node; the bag's few encoded
  // values stay inline.
  EXPECT_LE(AllocationsPerFire([&] { ASSERT_TRUE(Baggage::Deserialize(bytes).ok()); }), 2.0);
}

TEST_F(FireAllocTest, OneDepartArriveHop) {
  ExecutionContext ctx = OneBagContext(&runtime_);
  EXPECT_LE(AllocationsPerFire([&] {
              ExecutionContext server = Arrive(Depart(&ctx), &runtime_);
              ASSERT_EQ(server.baggage().TupleCount(), 1u);
            }),
            3.0);
}

// A process forwards a bag it never unpacks without decoding it: Arrive
// allocates the same whether the bag holds 64 tuples or 256, and at most one
// more than for a one-tuple bag (the encoded values' own buffer): no Tuple.
TEST_F(FireAllocTest, ArriveOfABagNeverUnpackedAllocatesNoTuple) {
  auto arrivals = [&](int tuples) {
    ExecutionContext ctx(&runtime_);
    for (int i = 0; i < tuples; ++i) {
      ctx.baggage().Pack(256, BagSpec::All(),
                         Tuple{{"u.seq", Value(int64_t{i})}, {"u.t", Value("abc")}});
    }
    const ContextOnWire wire = Depart(&ctx);
    return AllocationsPerFire([&] {
      ExecutionContext server = Arrive(wire, &runtime_);
      ASSERT_EQ(server.baggage().TupleCount(), static_cast<size_t>(tuples));
    });
  };
  const double one = arrivals(1);
  const double many = arrivals(64);
  EXPECT_EQ(arrivals(256), many);
  EXPECT_LE(many, one + 1);
  EXPECT_LE(one, 3.0);  // The wire bytes' copy, then Deserialize's two.
}

TEST_F(FireAllocTest, ForkJoinSerialize) {
  // A freshly packed baggage: the memo is stale when Fork freezes it.
  EXPECT_LE(AllocationsPerOp([&] { return OneBagContext(&runtime_); },
                             [](ExecutionContext& ctx) {
                               ExecutionContext branch = ctx.Fork();
                               ctx.Join(std::move(branch));
                               ctx.baggage().Serialize();
                             }),
            20.0);
}

// Decoding many small sets into one (a query's series read back interval by
// interval) grows the set's arrays geometrically: 1,000 one-row slices of
// new groups allocate a logarithmic number of times, not once per slice.
TEST(DecodeAllocTest, ManyOneRowSetsDecodeIntoOneWithLogarithmicAllocations) {
  const ResultPlan plan{{"g"}, {{AggFn::kCount, "", "COUNT", false}}};
  constexpr int kSlices = 1000;
  std::vector<std::vector<uint8_t>> slices(kSlices);
  for (int i = 0; i < kSlices; ++i) {
    ResultSet one(plan);
    one.AddInput(Tuple{{"g", Value(int64_t{i})}});
    one.Encode(&slices[i]);
  }
  ResultSet total(plan);
  const std::vector<std::string> names = total.ColumnNames();
  g_allocations.store(0);
  g_counting.store(true);
  for (const std::vector<uint8_t>& slice : slices) {
    SetFrame frame;
    size_t pos = 0;
    ASSERT_TRUE(SetFrame::Get(slice.data(), slice.size(), &pos, &frame) &&
                total.DecodeNamed(names, frame));
  }
  g_counting.store(false);
  EXPECT_EQ(total.size(), static_cast<size_t>(kSlices));
  // Each of the group arrays and the index doubles about log2(1000) = 10
  // times.
  EXPECT_LE(g_allocations.load(), 80u);
}

}  // namespace
}  // namespace pivot
