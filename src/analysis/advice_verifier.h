// AdviceVerifier: eBPF-verifier-style static analysis of one advice program.
//
// Advice is already structurally safe — straight-line, loop-free, bounded
// working set — but nothing in the execution engine rejects programs that are
// *semantically* broken: expressions that read columns no op ever produces,
// string operands fed to numeric arithmetic (which the total evaluator
// silently nulls out), unpacks of bags nobody packs, emits aimed at a foreign
// query, sample rates outside (0, 1]. The verifier abstract-interprets the op
// list once, tracking the set of live columns and a static type per column
// (the null/int/double/string/unknown lattice below), and reports structured
// PTxxx diagnostics (docs/ANALYSIS.md). Like an eBPF verifier it runs before
// anything is woven: the frontend's install gate verifies compiled queries,
// and agents re-verify advice decoded from untrusted wire bytes before
// handing it to TracepointRegistry::WeaveQuery.

#ifndef PIVOT_SRC_ANALYSIS_ADVICE_VERIFIER_H_
#define PIVOT_SRC_ANALYSIS_ADVICE_VERIFIER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/analysis/diagnostics.h"
#include "src/core/advice.h"
#include "src/core/baggage.h"
#include "src/core/tracepoint.h"

namespace pivot {
namespace analysis {

// The static type lattice. kUnknown is top (could be any runtime type);
// kNull is the type of columns that are statically always null (missing
// exports, failed arithmetic). There is deliberately no bottom: advice never
// branches, so every column has exactly one abstract value.
enum class StaticType : uint8_t {
  kNull = 0,
  kInt = 1,
  kDouble = 2,
  kString = 3,
  kUnknown = 4,
};

// "null" / "int" / "double" / "string" / "unknown".
const char* StaticTypeName(StaticType t);

// Least upper bound: equal types join to themselves, int⊔double = double
// (numeric promotion), null joins to the other side (null coerces at
// runtime), everything else joins to unknown.
StaticType JoinStaticTypes(StaticType a, StaticType b);

// What the verifier knows statically about one bag packed upstream.
struct BagColumns {
  BagSpec spec;
  // Column name -> static type of the tuples a matching Unpack yields. For
  // kAggregate bags these are the group fields plus the aggregate state
  // columns (AggSpec::StateColumns).
  std::map<std::string, StaticType> columns;
};

// Everything the verifier may know about the context an advice program runs
// in. All members are optional: absent knowledge skips the corresponding
// checks (the verifier never guesses).
struct VerifyContext {
  // Owning query: Emit ops must target it (PT201). 0 = unknown, skip.
  uint64_t query_id = 0;

  // The tracepoint the advice is woven at. Non-null enables the
  // Observe-source check (PT105) against def()->exports plus the built-in
  // default exports (host, timestamp, time, procid, procname, tracepoint).
  const TracepointDef* tracepoint = nullptr;

  // Bags packed by causally-earlier stages of the same query, keyed by bag.
  // Non-null enables the unpack-before-pack check (PT106) and gives unpacked
  // columns their packing-stage types; null types every unpacked read as an
  // unchecked open column set.
  const std::map<BagKey, BagColumns>* bags = nullptr;
};

struct VerifyResult {
  Report report;

  // Live columns (and their types) after the last op — the working set a
  // trailing Pack/Emit would see. Feeds the linter's cross-stage propagation.
  std::map<std::string, StaticType> columns;

  // Bags this program packs, with the statically-known packed column set.
  std::map<BagKey, BagColumns> packed;

  // True when some op emitted with an empty projection (emit everything).
  bool emits_all = false;
  // Columns explicitly emitted (union over Emit ops with projections).
  std::vector<std::string> emitted_columns;
};

class AdviceVerifier {
 public:
  AdviceVerifier() = default;
  explicit AdviceVerifier(VerifyContext ctx) : ctx_(std::move(ctx)) {}

  // Verifies one program. Never fails hard: broken programs produce error
  // diagnostics, and the abstract state degrades to kUnknown so later ops are
  // still checked.
  VerifyResult Verify(const Advice& advice) const;

 private:
  VerifyContext ctx_;
};

// Infers the static type of `e` over the column environment `env`, appending
// type-confusion (PT103), unknown-column (PT102) and division-by-literal-zero
// (PT110) diagnostics to `report`. Exposed for the linter's result-plan
// checks and for tests.
StaticType InferExprType(const Expr& e, const std::map<std::string, StaticType>& env,
                         Report* report, const std::string& tracepoint, int op_index);

}  // namespace analysis
}  // namespace pivot

#endif  // PIVOT_SRC_ANALYSIS_ADVICE_VERIFIER_H_
