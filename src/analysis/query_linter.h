// QueryLinter: whole-query static analysis across advice programs.
//
// The AdviceVerifier checks one straight-line program; the linter checks the
// properties that only exist *between* programs and against the deployment:
// every Unpack'd bag is Pack'ed by a causally-earlier stage (PT106 via
// propagated bag knowledge, PT202 for pack/unpack cycles), bag keys stay
// inside the owning query's range (PT204) and a live key is packed only by
// the program already filling it (PT203), one bag isn't packed under
// conflicting specs (PT205), the result plan only consumes columns some
// advice emits (PT206), packed columns are actually consumed downstream
// (PT207), and the query's baggage cost is classified bounded /
// unbounded-but-sampled / unbounded (PT208/PT209, the §4 "full table scan"
// risk).
//
// When a propagation graph is supplied (LintOptions::propagation), the linter
// additionally checks the query against the *deployment*: every `->` join
// needs a baggage-forwarding path between its components (PT301, with PT302
// pointing at dropping boundaries), tracepoints should be reachable from a
// client entry point (PT303), and All-semantics packs get a path-aware
// worst-case growth bound checked against a budget (PT305).
//
// The linter deliberately takes primitives (query id + (tracepoint, advice)
// pairs + the core ResultPlan) instead of CompiledQuery so the analysis
// library depends only on core; a CompiledQuery and a wire WeaveCommand both
// hold exactly these three parts.

#ifndef PIVOT_SRC_ANALYSIS_QUERY_LINTER_H_
#define PIVOT_SRC_ANALYSIS_QUERY_LINTER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/advice_verifier.h"
#include "src/analysis/causality_graph.h"
#include "src/analysis/diagnostics.h"
#include "src/core/advice.h"
#include "src/core/aggregation.h"
#include "src/core/baggage.h"
#include "src/core/tracepoint.h"

namespace pivot {
namespace analysis {

// How much tuple traffic the query can put into the baggage (§4). Bounded
// means every Pack op retains a statically-bounded number of tuples
// (FIRST/RECENT/aggregate); unbounded means some kAll pack can retain one
// tuple per tracepoint invocation — the full-table-scan case — and
// kUnboundedSampled means every such pack sits behind advice-level sampling.
enum class BaggageCost : uint8_t {
  kBounded = 0,
  kUnboundedSampled = 1,
  kUnbounded = 2,
};

// "bounded" / "unbounded-sampled" / "unbounded".
const char* BaggageCostName(BaggageCost c);

// Default PT305 budget (tuple-cells of worst-case All-semantics growth per
// request). See LintOptions::baggage_budget.
inline constexpr size_t kDefaultBaggageBudget = 256;

// One live bag: the program of the pack stage that fills it (its
// PackStageProgram, src/core/advice_io.h) and the active queries packing it,
// the minting query first. The frontend keeps a table of these, keyed by bag;
// it is also the context of the PT203 check.
struct LiveBag {
  std::vector<uint8_t> program;
  std::vector<uint64_t> queries;
};
using LiveBags = std::map<BagKey, LiveBag>;

struct LintOptions {
  // Tracepoint schema for Observe-source checking (PT105). Null skips: the
  // agent-side re-verify uses its local registry, the frontend the global one.
  const TracepointRegistry* schema = nullptr;

  // When false, dead-packed-column findings (PT207) are suppressed: the
  // compiler was asked not to push projections, so fat packs are intentional
  // (equivalence tests, Explain counting shadows).
  bool assume_projection_pushdown = true;

  // Bags live in the deployment. Enables the check that a query packs a live
  // key only with the program already filling it (PT203).
  const LiveBags* installed_bags = nullptr;

  // The deployment's propagation graph (causality_graph.h). Null — or a
  // graph with no declared boundaries — disables the reachability passes
  // (PT301/PT302/PT303/PT305), conservatively: a missing model must never
  // reject a query. Tracepoints resolve to components via the schema's
  // TracepointDef::component first, then the registry's anchors; tracepoints
  // with no known component are skipped by every reachability check.
  const PropagationRegistry* propagation = nullptr;

  // PT305 budget: the worst-case All-semantics baggage growth bound
  // (forwarding boundary crossings × packed tuple width) above which the
  // query is an install-time error. Generous by default — the paper's own
  // queries bound out in the tens on the full Hadoop topology.
  size_t baggage_budget = kDefaultBaggageBudget;
};

struct QueryLintResult {
  Report report;
  BaggageCost cost = BaggageCost::kBounded;

  // Everything the query packs, with statically-known column sets (after
  // cross-stage propagation).
  std::map<BagKey, BagColumns> bags;
};

class QueryLinter {
 public:
  QueryLinter() = default;
  explicit QueryLinter(LintOptions options) : options_(std::move(options)) {}

  // Lints one query: `advice` is the (tracepoint name, advice) list that
  // would be woven, `plan` the result-side plan. Never fails hard — broken
  // queries produce error diagnostics.
  QueryLintResult Lint(uint64_t query_id,
                       const std::vector<std::pair<std::string, Advice::Ptr>>& advice,
                       const ResultPlan& plan) const;

 private:
  LintOptions options_;
};

}  // namespace analysis
}  // namespace pivot

#endif  // PIVOT_SRC_ANALYSIS_QUERY_LINTER_H_
