// Query compiler: lowers a parsed Query to advice woven at tracepoints (§3)
// and applies the happened-before-join optimizations of §4 / Table 3.
//
// A query's sources are topologically ordered by the `->` constraints. Every
// source except the From source becomes a *packing stage*: its advice
// observes, joins tuples unpacked from its predecessors, evaluates any Where
// clauses that are already decidable, and packs (projected / pre-aggregated)
// tuples for its successors — exactly the paper's recursive advice generation
// ("we recursively generate advice for the joined query, and append a Pack
// operation at the end of its advice"). The From source becomes the *emit
// stage* whose tuples stream to the process-local agent.
//
// The compiler is a pure lowering: it checks the query against the schema
// (aliases, happened-before DAG, fields, exports) but does not lint its own
// output. Static analysis runs at the two trust boundaries instead — the
// frontend install gate and the agent's weave re-verify (docs/ANALYSIS.md).
//
// Optimizations (one switch, Options::pushdown, turns all three off for the
// ablation benches):
//   * projection pushdown  — pack only columns needed downstream (Π rules);
//   * selection pushdown   — evaluate each Where at the earliest stage where
//                            all its columns exist (σ rules);
//   * aggregation pushdown — when every select aggregate is computable at one
//                            packing stage and nothing else from that stage is
//                            needed beyond group keys, pack partial aggregate
//                            state instead of raw tuples and combine at the
//                            agent/frontend (A/GA rules with Combine).

#ifndef PIVOT_SRC_QUERY_COMPILER_H_
#define PIVOT_SRC_QUERY_COMPILER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/advice.h"
#include "src/core/aggregation.h"
#include "src/core/tracepoint.h"
#include "src/query/ast.h"

namespace pivot {

// Named queries referencable as join sources (the paper's Q9 joins Q8).
class QueryRegistry {
 public:
  Status Register(std::string name, Query q);
  const Query* Find(std::string_view name) const;

 private:
  std::map<std::string, Query, std::less<>> queries_;
};

// The compilation artifact: advice to weave plus the result-side plan the
// agent and frontend execute (grouping, combining, output shaping).
struct CompiledQuery {
  uint64_t query_id = 0;

  // (tracepoint name, advice) pairs, ready for TracepointRegistry::WeaveQuery.
  std::vector<std::pair<std::string, Advice::Ptr>> advice;

  // Result-side plan; streaming (Q8-style) queries have !plan.aggregated().
  ResultPlan plan;

  // Human-readable per-tracepoint advice listing (the §4 "explain"-style
  // overhead preview): every Pack shows what its bag retains (PACK-FIRST,
  // PACK-RECENT(3), PACK-AGG(...)). The linter classifies the query's
  // baggage cost (QueryLintResult::cost).
  std::string Explain() const;
};

// Builds the §4 "explain" shadow of a compiled query: the same tracepoints,
// unpacks, filters and packs, but every stage *counts* tuples instead of the
// final aggregation — "Pivot Tracing can execute a modified version of the
// query to count tuples rather than aggregate them explicitly. This would
// provide live analysis similar to 'explain' queries in the database domain."
// The shadow's results are rows of ($stage, COUNT) where $stage is
// "pack@<tracepoint>" or "emit@<tracepoint>". `shadow_id` must be a fresh
// query id (its bags must not collide with the original's).
CompiledQuery MakeCountingQuery(const CompiledQuery& original, uint64_t shadow_id);

// Glob-style tracepoint pattern matching ('*' matches any run of characters,
// '?' any single character) — the query-language analogue of the prototype's
// AspectJ-like pointcuts ("Pivot Tracing also supports pattern matching, for
// example, all methods of an interface on a class", §5). A source written as
// `From e In DN.*` expands at compile time to the union of all matching
// tracepoints in the schema registry.
bool TracepointPatternMatch(std::string_view pattern, std::string_view name);

class QueryCompiler {
 public:
  struct Options {
    // The §4 rewrites, on or off together (off: the ablation baseline).
    bool pushdown = true;
  };

  // `registry` validates tracepoints/exports; `named_queries` resolves
  // subquery joins (may be null if unused).
  QueryCompiler(const TracepointRegistry* registry, const QueryRegistry* named_queries)
      : QueryCompiler(registry, named_queries, Options{}) {}
  QueryCompiler(const TracepointRegistry* registry, const QueryRegistry* named_queries,
                Options options);

  // Compiles `q` under the given id. Performs semantic analysis: alias
  // resolution, happened-before DAG validation, field/export checking, and
  // select/group-by consistency.
  Result<CompiledQuery> Compile(const Query& q, uint64_t query_id) const;

 private:
  const TracepointRegistry* registry_;
  const QueryRegistry* named_queries_;
  Options options_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_QUERY_COMPILER_H_
