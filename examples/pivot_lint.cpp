// pivot_lint: the static-analysis front door — lint Pivot Tracing queries
// without installing anything (docs/ANALYSIS.md).
//
// Two modes:
//
//   ./build/examples/pivot_lint                    (demo)
//       Lints the paper's query corpus against the simulated Hadoop cluster's
//       tracepoint vocabulary (all clean), then walks a gallery of minimal
//       broken advice programs, one per diagnostic code — an executable
//       companion to the docs/ANALYSIS.md catalogue.
//
//   echo "From ..." | ./build/examples/pivot_lint -
//   ./build/examples/pivot_lint "From ..." ["From ..."]...
//       Lints each query (one per stdin line with '-', or one per argument)
//       and exits non-zero if any has error-severity findings — usable as a
//       pre-install gate in scripts.
//
//   ./build/examples/pivot_lint topology
//       Prints the cluster's system propagation graph (components, declared
//       causal boundaries, tracepoint anchors) and runs the whole-topology
//       audit (PT302/PT303/PT304). Exits non-zero on audit errors.

#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "src/analysis/query_linter.h"
#include "src/analysis/reachability.h"
#include "src/hadoop/cluster.h"
#include "src/query/compiler.h"

using namespace pivot;

namespace {

void PrintReport(const analysis::QueryLintResult& lint) {
  if (lint.report.empty()) {
    printf("  clean: no diagnostics\n");
  } else {
    for (const auto& d : lint.report.diagnostics()) {
      printf("  %s\n", d.ToString().c_str());
    }
  }
  printf("  baggage cost: %s\n", analysis::BaggageCostName(lint.cost));
}

// Returns 1 when the query has error-severity findings (the exit-code
// contract of the scripted mode).
int LintText(Frontend* frontend, const std::string& text) {
  printf("query: %s\n", text.c_str());
  Result<analysis::QueryLintResult> lint = frontend->Lint(text);
  if (!lint.ok()) {
    printf("  %s\n", lint.status().ToString().c_str());
    return 1;
  }
  PrintReport(*lint);
  return lint->report.has_errors() ? 1 : 0;
}

// ---- Demo part 2: the broken-advice gallery ----

// One minimal offender per diagnostic code, hand-built with AdviceBuilder
// (most of these cannot be written as query text: the query compiler's own
// semantic analysis stops them earlier — the verifier exists for advice that
// arrives without that provenance, e.g. off the wire).
void Gallery() {
  TracepointRegistry schema;
  TracepointDef demo_def;
  demo_def.name = "demo.tp";
  demo_def.exports = {"x", "s"};
  (void)schema.Define(demo_def);

  // PT30x diagnostics need a propagation graph: a front end ("FE", the client
  // entry) hands work to a back end ("BE") across a thread-pool queue that
  // drops baggage, and an "ISLAND" component no request ever reaches.
  analysis::PropagationRegistry graph;
  graph.DeclareComponent("FE", /*client_entry=*/true);
  graph.DeclareEdge(analysis::PropagationEdge{"FE", "BE", "queue", "thread pool",
                                              /*forwards_baggage=*/false});
  // A forwarding chain FE -> DB -> DW: the PT305 growth bound multiplies the
  // packed width by the longest forwarding path from the packer (2 hops here).
  graph.DeclareEdge(analysis::PropagationEdge{"FE", "DB", "rpc", "lookup",
                                              /*forwards_baggage=*/true});
  graph.DeclareEdge(analysis::PropagationEdge{"DB", "DW", "rpc", "archive",
                                              /*forwards_baggage=*/true});
  for (const auto& [name, component] : std::vector<std::pair<const char*, const char*>>{
           {"fe.tp", "FE"}, {"be.tp", "BE"}, {"island.tp", "ISLAND"}}) {
    TracepointDef def;
    def.name = name;
    def.exports = {"x"};
    def.component = component;
    (void)schema.Define(def);
  }

  struct Offender {
    const char* codes;
    const char* story;
    CompiledQuery query;
    size_t budget = analysis::kDefaultBaggageBudget;
  };
  const uint64_t kId = 7;
  const BagKey kBag = kId * kBagKeysPerQuery;  // Stage-0 bag of query 7.
  auto q = [&](std::vector<std::pair<std::string, Advice::Ptr>> advice) {
    CompiledQuery cq;
    cq.query_id = kId;
    cq.advice = std::move(advice);
    return cq;
  };

  std::vector<Offender> gallery;
  gallery.push_back({"PT101", "an empty advice program",
                     q({{"demo.tp", AdviceBuilder().Build()}})});
  gallery.push_back(
      {"PT102", "reads a column no op produces",
       q({{"demo.tp", AdviceBuilder()
                          .Observe({{"x", "t.x"}})
                          .Let("y", Expr::Binary(ExprOp::kAdd, Expr::Field("t.missing"),
                                                 Expr::Literal(Value(int64_t{1}))))
                          .Emit(kId, {"y"})
                          .Build()}})});
  gallery.push_back(
      {"PT103", "numeric arithmetic on a definitely-string column",
       q({{"demo.tp",
           AdviceBuilder()
               // procname is a default export with a statically-known string
               // type (declared exports like "s" type as unknown and pass).
               .Observe({{"procname", "t.name"}})
               .Let("twice", Expr::Binary(ExprOp::kMul, Expr::Field("t.name"),
                                          Expr::Literal(Value(int64_t{2}))))
               .Emit(kId, {"twice"})
               .Build()}})});
  gallery.push_back({"PT104", "sample rate outside (0, 1]",
                     q({{"demo.tp", AdviceBuilder()
                                        .Sample(1.5)
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kId, {"t.x"})
                                        .Build()}})});
  gallery.push_back({"PT105", "observes a variable the tracepoint does not export",
                     q({{"demo.tp", AdviceBuilder()
                                        .Observe({{"nonexistent", "t.n"}})
                                        .Emit(kId, {"t.n"})
                                        .Build()}})});
  gallery.push_back({"PT106", "unpacks a bag no predecessor packs",
                     q({{"demo.tp", AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Unpack(kBag + 9)
                                        .Emit(kId, {"t.x"})
                                        .Build()}})});
  gallery.push_back({"PT201", "emits to a query it does not belong to",
                     q({{"demo.tp", AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kId + 1, {"t.x"})
                                        .Build()}})});
  gallery.push_back(
      {"PT202", "two stages whose packs/unpacks form a cycle",
       q({{"demo.tp", AdviceBuilder()
                          .Unpack(kBag + 1)
                          .Pack(kBag, BagSpec::First(), {})
                          .Build()},
          {"demo.tp", AdviceBuilder()
                          .Unpack(kBag)
                          .Pack(kBag + 1, BagSpec::First(), {})
                          .Build()}})});
  gallery.push_back(
      {"PT208 + PT209", "unbounded packs joined into a cartesian product",
       q({{"demo.tp",
           AdviceBuilder().Observe({{"x", "a.x"}}).Pack(kBag, BagSpec::All(), {"a.x"}).Build()},
          {"demo.tp",
           AdviceBuilder().Observe({{"x", "b.x"}}).Pack(kBag + 1, BagSpec::All(), {"b.x"}).Build()},
          {"demo.tp", AdviceBuilder()
                          .Unpack(kBag)
                          .Unpack(kBag + 1)
                          .Observe({{"x", "t.x"}})
                          .Emit(kId, {"a.x", "b.x", "t.x"})
                          .Build()}})});
  gallery.push_back(
      {"PT301 + PT302", "happened-before join across a baggage-dropping boundary",
       q({{"fe.tp", AdviceBuilder()
                        .Observe({{"x", "a.x"}})
                        .Pack(kBag, BagSpec::First(), {"a.x"})
                        .Build()},
          {"be.tp", AdviceBuilder()
                        .Unpack(kBag)
                        .Observe({{"x", "b.x"}})
                        .Emit(kId, {"a.x", "b.x"})
                        .Build()}})});
  gallery.push_back({"PT303", "tracepoint in a component no client entry can reach",
                     q({{"island.tp", AdviceBuilder()
                                          .Observe({{"x", "t.x"}})
                                          .Emit(kId, {"t.x"})
                                          .Build()}})});
  gallery.push_back(
      {"PT305 (+PT208)", "All-semantics pack whose worst-case growth exceeds the budget",
       q({{"fe.tp", AdviceBuilder()
                        .Observe({{"x", "a.x"}})
                        .Let("y", Expr::Field("a.x"))
                        .Let("z", Expr::Field("a.x"))
                        .Pack(kBag, BagSpec::All(), {"a.x", "y", "z"})
                        .Build()},
          {"fe.tp", AdviceBuilder().Unpack(kBag).Emit(kId, {"a.x", "y", "z"}).Build()}}),
       /*budget=*/4});

  printf("\n=== broken-advice gallery (one offender per diagnostic) ===\n");
  for (const auto& offender : gallery) {
    printf("\n[%s] %s\n", offender.codes, offender.story);
    analysis::LintOptions options;
    options.schema = &schema;
    options.propagation = &graph;
    options.baggage_budget = offender.budget;
    const CompiledQuery& cq = offender.query;
    PrintReport(analysis::QueryLinter(options).Lint(cq.query_id, cq.advice, cq.plan));
  }
}

constexpr const char* kPaperCorpus[] = {
    // Q1-style: per-host bytes read (§2.1).
    "From incr In DataNodeMetrics.incrBytesRead "
    "GroupBy incr.host Select incr.host, SUM(incr.delta)",
    // Q2-style happened-before join: bytes read per client process (Fig 1).
    "From incr In DataNodeMetrics.incrBytesRead "
    "Join cl In First(ClientProtocols) On cl -> incr "
    "GroupBy cl.procName Select cl.procName, SUM(incr.delta)",
    // Self-telemetry: baggage bytes per query (Fig 10, live).
    "From b In Baggage.Serialize GroupBy b.queryId Select b.queryId, SUM(b.bytes)",
};

}  // namespace

int main(int argc, char** argv) {
  // The cluster is here only for its tracepoint vocabulary; no workload ever
  // runs.
  HadoopCluster cluster(HadoopClusterConfig{});
  Frontend* frontend = cluster.world()->frontend();

  if (argc > 1 && std::string(argv[1]) == "topology") {
    const analysis::PropagationRegistry& graph = cluster.world()->propagation();
    printf("%s", graph.RenderText().c_str());
    analysis::Report audit = analysis::AuditTopology(graph);
    if (audit.empty()) {
      printf("audit: clean (every boundary declared, every component reachable)\n");
    } else {
      printf("%s", audit.ToString().c_str());
    }
    return audit.has_errors() ? 1 : 0;
  }

  if (argc > 1) {
    int failures = 0;
    if (std::string(argv[1]) == "-") {
      std::string line;
      while (std::getline(std::cin, line)) {
        if (line.empty() || line[0] == '#') {
          continue;
        }
        failures += LintText(frontend, line);
      }
    } else {
      for (int i = 1; i < argc; ++i) {
        failures += LintText(frontend, argv[i]);
      }
    }
    return failures > 0 ? 1 : 0;
  }

  printf("=== paper query corpus (all expected clean) ===\n\n");
  int failures = 0;
  for (const char* text : kPaperCorpus) {
    failures += LintText(frontend, text);
  }
  Gallery();
  // Demo mode fails only if the supposedly-clean corpus is not clean.
  return failures > 0 ? 1 : 0;
}
