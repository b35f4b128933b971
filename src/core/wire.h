// Binary wire codec for values, strings and spec lists: the building blocks of
// the one tuple-set codec (ResultSet::Encode, SetFrame), baggage, reports and
// advice.
//
// The paper's prototype serialized baggage with protocol buffers; this repo
// substitutes a hand-rolled varint + length-prefix codec with the same
// properties (compact, platform-independent, linear in payload size). See
// DESIGN.md §1. All Get* functions are safe on untrusted input: they return
// false on truncated or malformed bytes and never read past `size`.

#ifndef PIVOT_SRC_CORE_WIRE_H_
#define PIVOT_SRC_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/varint.h"
#include "src/core/aggregation.h"
#include "src/core/value.h"

namespace pivot {

// Length-prefixed UTF-8/byte string.
void PutString(std::vector<uint8_t>* out, std::string_view s);
bool GetString(const uint8_t* data, size_t size, size_t* pos, std::string* s);

// String list: count + strings. Used for column lists in advice and result
// plans.
void PutStringList(std::vector<uint8_t>* out, const std::vector<std::string>& v);
bool GetStringList(const uint8_t* data, size_t size, size_t* pos, std::vector<std::string>* v);

// Result plan: the group-field string list, then a count + (fn u8,
// from_state u8, input, output) per aggregate. The one codec of a (group
// fields, aggregates) pair, shared by weave commands and bag specs.
void PutPlan(std::vector<uint8_t>* out, const ResultPlan& plan);
bool GetPlan(const uint8_t* data, size_t size, size_t* pos, ResultPlan* plan);

// Value: 1-byte type tag + payload (zig-zag varint / raw IEEE754 LE / string).
void PutValue(std::vector<uint8_t>* out, const Value& v);
bool GetValue(const uint8_t* data, size_t size, size_t* pos, Value* v);

// Steps over one value spelled exactly as PutValue spells it: a known tag,
// and ints and string lengths as minimal varints (GetCanonicalVarint64). A
// group key is compared as its bytes, so one read off the wire must have
// the one spelling, or one key could split into two groups.
bool SkipCanonicalValue(const uint8_t* data, size_t size, size_t* pos);

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_WIRE_H_
