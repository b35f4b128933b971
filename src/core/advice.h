// Advice: the intermediate representation Pivot Tracing queries compile to
// (§3, Table 2). Advice is the name-form program: the compiler emits it, the
// weave command carries it (advice_io.h) and the verifier checks it. It runs
// only as an AdvicePlan (plan.h), bound once when it is woven; binding interns
// its names into the never-freed symbol table, so an agent binds only advice
// it has verified.
//
// An advice program is a straight-line sequence of operations over a working
// set of tuples:
//
//   Sample   continue with probability p, else stop (advice-level sampling,
//            the §8 extension: "Sampling at the advice level is a further
//            method of reducing overhead")
//   Observe  construct a tuple from tracepoint-exported variables
//   Unpack   retrieve tuples packed by earlier advice and join them with the
//            working set (the inline evaluation of ->⋈, Fig 6b)
//   Let      append a computed column (lowered Select arithmetic, e.g. Q8's
//            `response.time - request.time`)
//   Filter   drop tuples failing a predicate (Where)
//   Pack     store (projected / pre-aggregated) tuples in the baggage for
//            later advice
//   Emit     forward tuples to the process-local agent for aggregation
//
// There are no jumps and no recursion, so advice is guaranteed to terminate;
// expressions are side-effect-free trees (expr.h).

#ifndef PIVOT_SRC_CORE_ADVICE_H_
#define PIVOT_SRC_CORE_ADVICE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/baggage.h"
#include "src/core/expr.h"

namespace pivot {

class Advice {
 public:
  enum class OpKind { kObserve, kUnpack, kLet, kFilter, kPack, kEmit, kSample };

  struct Op {
    OpKind kind;

    // kObserve: (exported variable, output column) pairs; e.g. ("delta",
    // "incr.delta"). Missing exports observe as null.
    std::vector<std::pair<std::string, std::string>> observe;

    // kUnpack / kPack: which bag.
    BagKey bag = 0;
    // kPack: the bag's retention/aggregation semantics.
    BagSpec bag_spec;
    // kPack: the columns a retention bag keeps, in order — the bag's schema,
    // since its values travel by position (none keeps only the row); an
    // aggregate bag's spec fixes its columns, so they are ignored.
    // kEmit: columns to project before emitting (empty = emit everything).
    std::vector<std::string> fields;

    // kLet: output column name.
    std::string let_name;
    // kLet: value expression; kFilter: predicate.
    Expr::Ptr expr;

    // kEmit: destination query.
    uint64_t query_id = 0;

    // kSample: probability in (0, 1] that this invocation proceeds. The
    // decision is made once per invocation with a deterministic counter-hash
    // sequence (reproducible in the simulator, uniform in the long run).
    double sample_rate = 1.0;
  };

  using Ptr = std::shared_ptr<const Advice>;

  explicit Advice(std::vector<Op> ops) : ops_(std::move(ops)) {}

  const std::vector<Op>& ops() const { return ops_; }

  // Human-readable listing, e.g. "OBSERVE procName / PACK-FIRST[procName]".
  std::string ToString() const;

 private:
  std::vector<Op> ops_;
};

// Fluent construction of advice programs; used by the query compiler and by
// tests/examples building advice by hand.
class AdviceBuilder {
 public:
  AdviceBuilder& Sample(double rate);
  AdviceBuilder& Observe(std::vector<std::pair<std::string, std::string>> vars);
  AdviceBuilder& Unpack(BagKey bag);
  AdviceBuilder& Let(std::string name, Expr::Ptr expr);
  AdviceBuilder& Filter(Expr::Ptr predicate);
  AdviceBuilder& Pack(BagKey bag, BagSpec spec, std::vector<std::string> fields);
  AdviceBuilder& Emit(uint64_t query_id, std::vector<std::string> fields);

  Advice::Ptr Build();

 private:
  std::vector<Advice::Op> ops_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_ADVICE_H_
