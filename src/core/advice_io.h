// Wire codec for expressions and advice programs.
//
// The frontend compiles queries to advice and ships the advice to every PT
// agent over the message bus (Fig 2 ③④); agents decode and weave it locally.
// Decoding is safe on untrusted bytes (bounds-checked, depth-capped) and
// preserves the advice safety guarantees: the decoded program is the same
// loop-free instruction list that was encoded.

#ifndef PIVOT_SRC_CORE_ADVICE_IO_H_
#define PIVOT_SRC_CORE_ADVICE_IO_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/core/advice.h"
#include "src/core/expr.h"

namespace pivot {

void EncodeExpr(std::vector<uint8_t>* out, const Expr::Ptr& e);
bool DecodeExpr(const uint8_t* data, size_t size, size_t* pos, Expr::Ptr* out);

// BagSpec, the spec of a Pack op: u8 semantics, varint limit, then the plan
// (PutPlan). GetBagSpec rejects a kFirstN/kRecentN limit outside
// 1..kMaxBagTuples, and a spec whose semantics and plan disagree: kAggregate
// with an empty plan, or a retention semantics with group fields or
// aggregates. Baggage carries no spec: each step binds its bag's at weave.
void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec);
bool GetBagSpec(const uint8_t* data, size_t size, size_t* pos, BagSpec* spec);

void EncodeAdvice(std::vector<uint8_t>* out, const Advice& advice);
bool DecodeAdvice(const uint8_t* data, size_t size, size_t* pos, Advice::Ptr* out);

// The content of the pack stage that fills `bag`: every (tracepoint, program)
// pair in `advice` whose program packs `bag`, in order, each program encoded
// with `bag` itself masked to 0 and every other key mapped through `resolved`
// (keys it lacks stay). Two stages with equal content fill equal bags, so the
// frontend lets them share one key. Empty when nothing packs `bag`.
std::vector<uint8_t> PackStageProgram(
    const std::vector<std::pair<std::string, Advice::Ptr>>& advice, BagKey bag,
    const std::map<BagKey, BagKey>& resolved);

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_ADVICE_IO_H_
