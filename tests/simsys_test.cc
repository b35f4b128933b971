#include <gtest/gtest.h>

#include "src/simsys/sim_env.h"
#include "src/simsys/sim_resource.h"
#include "src/simsys/sim_rpc.h"
#include "src/simsys/sim_world.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

double Total(const TimeSeries& ts) {
  double sum = 0;
  for (const auto& [sec, v] : ts.buckets()) {
    sum += v;
  }
  return sum;
}

TEST(SimEnvTest, RunsEventsInTimeOrder) {
  SimEnvironment env;
  std::vector<int> order;
  env.Schedule(30, [&] { order.push_back(3); });
  env.Schedule(10, [&] { order.push_back(1); });
  env.Schedule(20, [&] { order.push_back(2); });
  env.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.now_micros(), 30);
}

TEST(SimEnvTest, FifoTieBreakAtSameTime) {
  SimEnvironment env;
  std::vector<int> order;
  env.Schedule(10, [&] { order.push_back(1); });
  env.Schedule(10, [&] { order.push_back(2); });
  env.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimEnvTest, NestedScheduling) {
  SimEnvironment env;
  int64_t fired_at = -1;
  env.Schedule(5, [&] { env.Schedule(7, [&] { fired_at = env.now_micros(); }); });
  env.RunAll();
  EXPECT_EQ(fired_at, 12);
}

TEST(SimEnvTest, RunUntilStopsAtBoundaryAndAdvancesClock) {
  SimEnvironment env;
  int fired = 0;
  env.Schedule(10, [&] { ++fired; });
  env.Schedule(100, [&] { ++fired; });
  env.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(env.now_micros(), 50);
  EXPECT_EQ(env.pending_events(), 1u);
}

TEST(SimEnvTest, PastSchedulingClampsToNow) {
  SimEnvironment env;
  env.Schedule(10, [&] {
    env.ScheduleAt(3, [] {});  // In the past: runs "now".
  });
  env.RunAll();
  EXPECT_EQ(env.now_micros(), 10);
}

TEST(TimeSeriesTest, BucketsBySecond) {
  SimEnvironment env;
  TimeSeries ts(&env);
  ts.AddAt(0, 1.0);
  ts.AddAt(kMicrosPerSecond - 1, 2.0);
  ts.AddAt(kMicrosPerSecond, 5.0);
  EXPECT_EQ(ts.buckets().at(0), 3.0);
  EXPECT_EQ(ts.buckets().at(1), 5.0);
  EXPECT_EQ(ts.buckets().size(), 2u);
}

TEST(SimResourceTest, TransferTimeMatchesRate) {
  SimEnvironment env;
  SimResource disk(&env, "disk", 100.0 * kMicrosPerSecond);  // 100 bytes/µs.
  int64_t done_at = -1;
  disk.Transfer(1000, [&] { done_at = env.now_micros(); });
  env.RunAll();
  EXPECT_EQ(done_at, 10);  // 1000 bytes / 100 per µs.
}

TEST(SimResourceTest, FifoQueueing) {
  SimEnvironment env;
  SimResource disk(&env, "disk", 100.0 * kMicrosPerSecond);
  int64_t first = -1;
  int64_t second = -1;
  int64_t queued_second = -1;
  disk.Transfer(1000, [&] { first = env.now_micros(); });
  disk.Transfer(1000, [&](int64_t queued, int64_t) {
    second = env.now_micros();
    queued_second = queued;
  });
  env.RunAll();
  EXPECT_EQ(first, 10);
  EXPECT_EQ(second, 20);  // Served after the first.
  EXPECT_EQ(queued_second, 10);
}

TEST(SimResourceTest, RateChangeAffectsNewTransfers) {
  SimEnvironment env;
  SimResource nic(&env, "nic", 1000.0);
  nic.set_rate(10.0);  // Limplock!
  int64_t done_at = -1;
  nic.Transfer(10, [&] { done_at = env.now_micros(); });
  env.RunAll();
  EXPECT_EQ(done_at, kMicrosPerSecond);  // 10 bytes at 10 B/s = 1 s.
}

TEST(SimResourceTest, ThroughputSeriesAccountsBytes) {
  SimEnvironment env;
  SimResource disk(&env, "disk", 1000.0);  // 1000 B/s.
  disk.Transfer(500, [] {});
  env.RunAll();
  EXPECT_EQ(disk.total_bytes(), 500u);
  EXPECT_NEAR(Total(disk.throughput()), 500.0, 1e-6);
}

TEST(SimResourceTest, MultiSecondTransferSpreadsAcrossBuckets) {
  SimEnvironment env;
  SimResource disk(&env, "disk", 1000.0);
  disk.Transfer(3000, [] {});  // 3 seconds.
  env.RunAll();
  EXPECT_NEAR(disk.throughput().buckets().at(0), 1000.0, 1.0);
  EXPECT_NEAR(disk.throughput().buckets().at(1), 1000.0, 1.0);
  EXPECT_NEAR(Total(disk.throughput()), 3000.0, 1e-6);
}

TEST(SimResourceTest, OccupySerializesCriticalSections) {
  SimEnvironment env;
  SimResource lock(&env, "lock", 1.0);  // Rate irrelevant for Occupy.
  std::vector<int64_t> done_at;
  std::vector<int64_t> queued;
  for (int i = 0; i < 3; ++i) {
    lock.Occupy(100, [&](int64_t q) {
      done_at.push_back(env.now_micros());
      queued.push_back(q);
    });
  }
  env.RunAll();
  EXPECT_EQ(done_at, (std::vector<int64_t>{100, 200, 300}));
  EXPECT_EQ(queued, (std::vector<int64_t>{0, 100, 200}));
}

TEST(SimResourceTest, OccupyInterleavesWithTransfers) {
  SimEnvironment env;
  SimResource disk(&env, "disk", 100.0 * kMicrosPerSecond);  // 100 B/µs.
  int64_t transfer_done = -1;
  int64_t occupy_done = -1;
  disk.Transfer(1000, [&] { transfer_done = env.now_micros(); });  // 10 µs.
  disk.Occupy(50, [&](int64_t) { occupy_done = env.now_micros(); });
  env.RunAll();
  EXPECT_EQ(transfer_done, 10);
  EXPECT_EQ(occupy_done, 60);  // Queued behind the transfer.
}

TEST(SimWorldTest, HostsAndProcesses) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimProcess* dn = world.AddProcess(a, "DataNode");
  EXPECT_EQ(dn->host(), a);
  EXPECT_EQ(dn->runtime()->info.host, "A");
  EXPECT_EQ(dn->runtime()->info.process_name, "DataNode");
  EXPECT_EQ(world.FindHost("A"), a);
  EXPECT_EQ(world.FindHost("Z"), nullptr);
}

TEST(SimWorldTest, ProcessClockTracksSimTime) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimProcess* p = world.AddProcess(a, "X");
  world.env()->Schedule(12345, [] {});
  world.env()->RunAll();
  EXPECT_EQ(p->runtime()->NowMicros(), 12345);
}

TEST(SimWorldTest, SchemaAggregatesTracepointDefs) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimProcess* p1 = world.AddProcess(a, "X");
  SimProcess* p2 = world.AddProcess(a, "Y");
  TracepointDef def;
  def.name = "T";
  def.exports = {"v"};
  p1->DefineTracepoint(def);
  p2->DefineTracepoint(def);  // Same def in another process: fine.
  EXPECT_NE(world.schema()->Find("T"), nullptr);
  EXPECT_NE(p1->registry()->Find("T"), nullptr);
  EXPECT_NE(p2->registry()->Find("T"), nullptr);
}

TEST(SimWorldTest, PauseDelaysObservable) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimProcess* p = world.AddProcess(a, "X");
  p->PauseUntil(500);
  EXPECT_EQ(p->PauseDelay(), 500);
  world.env()->Schedule(600, [] {});
  world.env()->RunAll();
  EXPECT_EQ(p->PauseDelay(), 0);
}

TEST(SimRpcTest, BaggageCrossesTheWire) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimHost* b = world.AddHost("B", 200e6, 125e6);
  SimProcess* client = world.AddProcess(a, "client");
  SimProcess* server = world.AddProcess(b, "server");

  RpcStats::Reset();
  CtxPtr ctx = world.NewRequest(client);
  ctx->baggage().Pack(1, BagSpec::First(1), Tuple{{"procName", Value("client")}});

  bool server_saw_baggage = false;
  bool client_resumed = false;
  SimRpcCall(
      client, server, ctx, 100,
      [&](CtxPtr sctx, RpcRespond respond) {
        auto tuples = UnpackCopy(sctx->baggage(), 1, Schema(BagSpec::First(1), {"procName"}));
        server_saw_baggage = tuples.size() == 1 &&
                             tuples[0].Get("procName").string_value() == "client";
        // Server adds its own tuple; the client must see it on return.
        sctx->baggage().Pack(2, BagSpec::All(), Tuple{{"server", Value("yes")}});
        respond(std::move(sctx), 200);
      },
      [&](CtxPtr back) {
        client_resumed = true;
        EXPECT_EQ(UnpackCopy(back->baggage(), 2, Schema(BagSpec::All(), {"server"})).size(), 1u);
        EXPECT_EQ(UnpackCopy(back->baggage(), 1, Schema(BagSpec::First(1), {"procName"})).size(),
                  1u);
      });
  world.env()->RunAll();
  EXPECT_TRUE(server_saw_baggage);
  EXPECT_TRUE(client_resumed);
  EXPECT_EQ(RpcStats::total_calls, 1u);
  EXPECT_GT(RpcStats::total_baggage_bytes, 0u);
}

TEST(SimRpcTest, StatsResetClearsBothCounters) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimHost* b = world.AddHost("B", 200e6, 125e6);
  SimProcess* client = world.AddProcess(a, "client");
  SimProcess* server = world.AddProcess(b, "server");

  RpcStats::Reset();
  CtxPtr ctx = world.NewRequest(client);
  ctx->baggage().Pack(1, BagSpec::First(1), Tuple{{"k", Value("v")}});
  SimRpcCall(
      client, server, ctx, 100,
      [](CtxPtr sctx, RpcRespond respond) { respond(std::move(sctx), 100); },
      [](CtxPtr) {});
  world.env()->RunAll();

  EXPECT_GT(RpcStats::total_calls, 0u);
  EXPECT_GT(RpcStats::total_baggage_bytes, 0u);
  RpcStats::Reset();
  EXPECT_EQ(RpcStats::total_calls, 0u);
  EXPECT_EQ(RpcStats::total_baggage_bytes, 0u);
}

TEST(SimRpcTest, RpcConsumesNetworkTime) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 1000.0);  // Tiny 1000 B/s links.
  SimHost* b = world.AddHost("B", 200e6, 1000.0);
  SimProcess* client = world.AddProcess(a, "client");
  SimProcess* server = world.AddProcess(b, "server");

  int64_t done_at = -1;
  CtxPtr ctx = world.NewRequest(client);
  SimRpcCall(
      client, server, ctx, 500,
      [](CtxPtr sctx, RpcRespond respond) { respond(std::move(sctx), 500); },
      [&](CtxPtr) { done_at = world.env()->now_micros(); });
  world.env()->RunAll();
  // 500 B over 2 links each way at 1000 B/s: >= 2 simulated seconds.
  EXPECT_GE(done_at, 2 * kMicrosPerSecond);
}

TEST(SimRpcTest, SameHostRpcSkipsNetwork) {
  SimWorld world;
  SimHost* a = world.AddHost("A", 200e6, 1000.0);
  SimProcess* client = world.AddProcess(a, "client");
  SimProcess* server = world.AddProcess(a, "server");

  int64_t done_at = -1;
  CtxPtr ctx = world.NewRequest(client);
  SimRpcCall(
      client, server, ctx, 100000,
      [](CtxPtr sctx, RpcRespond respond) { respond(std::move(sctx), 100000); },
      [&](CtxPtr) { done_at = world.env()->now_micros(); });
  world.env()->RunAll();
  EXPECT_EQ(done_at, 0);
  EXPECT_EQ(a->nic_out().total_bytes(), 0u);
}

TEST(SimRpcTest, TraceAttachmentSurvivesHop) {
  SimWorld world;
  world.EnableRecording();
  SimHost* a = world.AddHost("A", 200e6, 125e6);
  SimHost* b = world.AddHost("B", 200e6, 125e6);
  SimProcess* client = world.AddProcess(a, "client");
  SimProcess* server = world.AddProcess(b, "server");

  TracepointDef def;
  def.name = "S";
  server->DefineTracepoint(def);
  def.name = "C";
  client->DefineTracepoint(def);

  CtxPtr ctx = world.NewRequest(client);
  EventId client_event = ctx->AdvanceEvent();
  SimRpcCall(
      client, server, ctx, 100,
      [&](CtxPtr sctx, RpcRespond respond) {
        server->registry()->Find("S")->Invoke(sctx.get(), {});
        respond(std::move(sctx), 100);
      },
      [&](CtxPtr cctx) { client->registry()->Find("C")->Invoke(cctx.get(), {}); });
  world.env()->RunAll();

  // Both legs: the request carries the client's event to the server, and the
  // response carries the server's event back to `done`.
  ASSERT_EQ(world.recorder()->observed().size(), 2u);
  const ObservedEvent& server_obs = world.recorder()->observed()[0];
  const ObservedEvent& done_obs = world.recorder()->observed()[1];
  EXPECT_EQ(server_obs.tracepoint, "S");
  EXPECT_EQ(done_obs.tracepoint, "C");
  const TraceGraph* graph = world.recorder()->graph(server_obs.trace_id);
  EXPECT_EQ(done_obs.trace_id, server_obs.trace_id);
  EXPECT_TRUE(graph->HappenedBefore(client_event, server_obs.event));
  EXPECT_TRUE(graph->HappenedBefore(server_obs.event, done_obs.event));
}

}  // namespace
}  // namespace pivot
