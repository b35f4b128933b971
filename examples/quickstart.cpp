// Quickstart: instrumenting a toy application with Pivot Tracing.
//
// This example uses only the core library (no simulator): it wires up the
// pieces a real deployment needs —
//   * a TracepointRegistry per process, with tracepoint definitions,
//   * a PTAgent per process (the EmitSink advice writes to),
//   * a MessageBus connecting agents to a Frontend,
//   * ExecutionContexts carrying baggage through requests,
// then installs two queries at runtime (one plain aggregation, one
// happened-before join) while "requests" run, and prints streaming results.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "src/agent/agent.h"
#include "src/agent/frontend.h"
#include "src/bus/message_bus.h"
#include "src/core/tracepoint.h"

using namespace pivot;

namespace {

// A toy two-tier system: a "web" tier that receives user requests and a
// "storage" tier it calls into. Each tier is one process with its own
// tracepoint registry and Pivot Tracing agent.
struct Process {
  TracepointRegistry registry;
  ProcessRuntime runtime;
  std::unique_ptr<PTAgent> agent;

  Process(MessageBus* bus, std::string host, std::string name) {
    runtime.info.host = std::move(host);
    runtime.info.process_name = std::move(name);
    agent = std::make_unique<PTAgent>(bus, &registry, runtime.info);
    runtime.sink = agent.get();
  }
};

TracepointDef Def(const char* name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

}  // namespace

int main() {
  MessageBus bus;

  // ---- 1. Set up the two processes and their tracepoints. ----
  Process web(&bus, "host-1", "webserver");
  Process storage(&bus, "host-2", "storage");

  Tracepoint* tp_request = *web.registry.Define(Def("Web.HandleRequest", {"user", "path"}));
  Tracepoint* tp_read = *storage.registry.Define(Def("Storage.Read", {"bytes"}));

  // A schema registry (the union of all definitions) lets the frontend
  // type-check queries. In a deployment this is distributed documentation;
  // here we just define the same tracepoints again.
  TracepointRegistry schema;
  (void)schema.Define(Def("Web.HandleRequest", {"user", "path"}));
  (void)schema.Define(Def("Storage.Read", {"bytes"}));

  Frontend frontend(&bus, &schema);

  // ---- 2. Install queries at runtime. ----
  // Plain aggregation, like the paper's Q1: total bytes read per host.
  uint64_t q_bytes = *frontend.Install(
      "From r In Storage.Read\n"
      "GroupBy r.host\n"
      "Select r.host, SUM(r.bytes)");

  // Happened-before join, like Q2: storage bytes *grouped by the user* who
  // caused them — the user is only known in the web tier; baggage carries it.
  uint64_t q_by_user = *frontend.Install(
      "From r In Storage.Read\n"
      "Join req In First(Web.HandleRequest) On req -> r\n"
      "GroupBy req.user\n"
      "Select req.user, SUM(r.bytes), COUNT");

  printf("Installed queries:\n%s\n", frontend.compiled(q_by_user)->Explain().c_str());

  // ---- 3. Run some requests. ----
  const char* users[] = {"alice", "bob", "alice", "carol", "alice", "bob"};
  int64_t sizes[] = {4096, 100, 8192, 512, 1024, 300};
  for (int i = 0; i < 6; ++i) {
    // Each request gets a context; tracepoints fire as execution passes them.
    ExecutionContext ctx(&web.runtime);
    tp_request->Invoke(&ctx, {{"user", Value(users[i])}, {"path", Value("/data")}});

    // The request crosses to the storage process: Depart serializes the
    // baggage into the RPC, Arrive deserializes it on the other side (what an
    // instrumented RPC layer does automatically).
    ContextOnWire wire = Depart(&ctx);
    ExecutionContext storage_ctx = Arrive(std::move(wire), &storage.runtime);

    tp_read->Invoke(&storage_ctx, {{"bytes", Value(sizes[i])}});
    // (Each storage read may fire the tracepoint many times; keep it simple.)
  }

  // ---- 4. Agents report once per interval; collect and print. ----
  web.agent->Flush(1'000'000);
  storage.agent->Flush(1'000'000);

  printf("Total bytes read per storage host:\n");
  for (const Tuple& row : frontend.Results(q_bytes)) {
    printf("  %s\n", row.ToString().c_str());
  }
  printf("\nStorage bytes attributed to the *web-tier user* (cross-process join):\n");
  for (const Tuple& row : frontend.Results(q_by_user)) {
    printf("  %s\n", row.ToString().c_str());
  }

  // ---- 5. Uninstall: tracepoints go back to zero overhead. ----
  (void)frontend.Uninstall(q_bytes);
  (void)frontend.Uninstall(q_by_user);
  printf("\nAfter uninstall, tracepoints enabled? web=%s storage=%s\n",
         tp_request->enabled() ? "yes" : "no", tp_read->enabled() ? "yes" : "no");
  return 0;
}
