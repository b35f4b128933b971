// Grouped aggregation with combiner support (Tables 1 and 3).
//
// Pivot Tracing aggregates in three places with the same machinery:
//   1. Pack-side pre-aggregation in the baggage (Table 3's pushed-down A/GA);
//   2. process-local aggregation of emitted tuples in the PT agent (§5);
//   3. global merging of agent reports in the frontend.
// Stages 2 and 3 combine *partial* aggregates, so every aggregator carries a
// combiner ("for Count, the combiner is Sum"): partial state is externalized
// as plain state tuples which any other Aggregator can absorb with AddState().

#ifndef PIVOT_SRC_CORE_AGGREGATION_H_
#define PIVOT_SRC_CORE_AGGREGATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/symbol.h"
#include "src/core/tuple.h"
#include "src/core/value.h"

namespace pivot {

enum class AggFn : uint8_t {
  kCount = 0,
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAverage = 4,
};

// Returns "COUNT", "SUM", ... (the query-language spelling).
const char* AggFnName(AggFn fn);

// One aggregate column of a query: `fn(input)` emitted as column `output`.
// Count ignores `input`.
struct AggSpec {
  AggFn fn;
  std::string input;   // Source column (empty for Count).
  std::string output;  // Result column name, e.g. "SUM(incr.delta)".

  // When true, `input` already holds *partial aggregate state* produced by an
  // upstream (pushed-down) aggregation, and AddInput combines rather than
  // accumulates — the `Combine` of Table 3. For Average the companion count is
  // read from `input + "#n"`.
  bool from_state = false;

  bool operator==(const AggSpec& other) const {
    return fn == other.fn && input == other.input && output == other.output &&
           from_state == other.from_state;
  }

  // Names of the state columns this aggregate externalizes in a state tuple.
  // All functions use one column (named `output`) except Average, which keeps
  // (sum, count) in `output` and `output + "#n"`.
  std::vector<std::string> StateColumns() const;
};

// The result side of a compiled query: how agents and the frontend process
// its emitted tuples. The compiler produces it, the weave command carries it
// to agents, and the linter checks emitted columns against it. A query with
// neither group fields nor aggregates streams its raw tuples.
struct ResultPlan {
  std::vector<std::string> group_fields;
  std::vector<AggSpec> aggs;  // from_state marks pushed-down aggregates.

  bool aggregated() const { return !group_fields.empty() || !aggs.empty(); }
};

// Streaming grouped aggregator. Group keys are the values of `group_fields`;
// with no group fields there is a single implicit group (plain Aggregate).
// Output order is group-insertion order, which keeps results deterministic.
//
// Group lookup is a hashed index over the projected group Values (hash probe
// with full type-aware equality confirmation) — no canonical string key is
// materialized on the per-tuple path. Keys are type-distinguishing: int 1,
// double 1.0 and string "1" land in three different groups; doubles compare
// bitwise (so -0.0 and 0.0 are distinct groups, and only bit-identical NaNs
// coalesce).
class Aggregator {
 public:
  Aggregator(std::vector<std::string> group_fields, std::vector<AggSpec> specs);

  // Accumulates one raw input tuple.
  void AddInput(const Tuple& t);

  // Combines one state tuple previously produced by StateTuples() on an
  // aggregator with the same configuration.
  void AddState(const Tuple& t);

  // Externalizes partial state: one tuple per group containing the group
  // fields plus each spec's state columns. Suitable for baggage packing and
  // agent→frontend reporting.
  std::vector<Tuple> StateTuples() const;

  // Final results: one tuple per group with group fields + each spec's
  // `output` column (Average divides here).
  std::vector<Tuple> Finalize() const;

  void Clear();
  bool empty() const { return groups_.empty(); }
  size_t group_count() const { return groups_.size(); }

  // Mutable view of one accumulator, used by the .cc's combine helper.
  struct AccumRef {
    bool& has_value;
    Value& value;
    int64_t& count;
  };

 private:
  struct Accum {
    bool has_value = false;
    Value value;       // Count: running count. Sum/Min/Max: value. Average: sum.
    int64_t count = 0;  // Average only.
  };

  struct Group {
    Tuple key_tuple;  // Group fields only, in group_fields_ order.
    std::vector<Accum> accums;
  };

  // Hashed group index: open-addressed linear probing over
  // (group-key hash, groups_ position). Power-of-two sized; rehash keeps the
  // stored hashes, so group keys are never re-hashed after insertion.
  struct IndexSlot {
    uint64_t hash = 0;
    size_t group = kEmptySlot;
  };
  static constexpr size_t kEmptySlot = static_cast<size_t>(-1);

  Group& GroupFor(const Tuple& t);
  void GrowIndex();

  // Column references resolved once at construction so the per-tuple
  // accumulate path (pack-side pre-aggregation fires on every tracepoint
  // invocation) reads tuples by SymbolId, not by string.
  struct SpecIds {
    SymbolId input = kInvalidSymbol;     // spec.input
    SymbolId input_n = kInvalidSymbol;   // spec.input + "#n" (from_state Average)
    SymbolId output = kInvalidSymbol;    // spec.output
    SymbolId output_n = kInvalidSymbol;  // spec.output + "#n" (Average state)
  };

  std::vector<std::string> group_fields_;
  std::vector<SymbolId> group_ids_;
  std::vector<AggSpec> specs_;
  std::vector<SpecIds> spec_ids_;
  std::vector<Group> groups_;
  std::vector<IndexSlot> slots_;  // Empty until the first group; 2^k sized.
};

// One query's results at one level of the combine tree (§5): an agent's
// emission shard, the agent's interval, the frontend's total or one of its
// intervals. An aggregated plan keeps Aggregator state, a streaming plan keeps
// rows in arrival order. Take() hands a level's contents to the next level's
// Absorb(): state tuples merge through the combiner (Table 3), rows append.
class ResultSet {
 public:
  explicit ResultSet(const ResultPlan& plan);

  // Accumulates one raw emitted tuple.
  void AddInput(const Tuple& t);

  // Combines another ResultSet's Take() output for the same plan.
  void Absorb(const std::vector<Tuple>& taken);

  // Externalizes the contents (state tuples or rows) and empties the set.
  std::vector<Tuple> Take();

  // Final rows: group fields then aggregate outputs, or the streamed rows.
  std::vector<Tuple> Finalize() const;

  bool empty() const { return aggregated_ ? agg_.empty() : rows_.empty(); }

 private:
  bool aggregated_;
  Aggregator agg_;
  std::vector<Tuple> rows_;  // Streaming plans only.
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_AGGREGATION_H_
