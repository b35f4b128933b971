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

// Steps over one value GetValue would read, without building it, and sets
// `*type` to its tag. With `canonical`, only a value spelled exactly as
// PutValue spells it: ints and string lengths as minimal varints
// (GetCanonicalVarint64). Inline: a report's rows are checked value by value.
inline bool SkipValue(const uint8_t* data, size_t size, size_t* pos, ValueType* type,
                      bool canonical = false) {
  if (*pos >= size) {
    return false;
  }
  *type = static_cast<ValueType>(data[(*pos)++]);
  uint64_t n = 0;
  switch (*type) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return canonical ? GetCanonicalVarint64(data, size, pos, &n)
                       : GetVarint64(data, size, pos, &n);
    case ValueType::kDouble:
      n = 8;
      break;
    case ValueType::kString:
      if (!(canonical ? GetCanonicalVarint64(data, size, pos, &n)
                      : GetVarint64(data, size, pos, &n))) {
        return false;
      }
      break;
    default:
      return false;
  }
  if (n > size - *pos) {
    return false;
  }
  *pos += n;
  return true;
}

// Steps over one value spelled exactly as PutValue spells it. A group key
// is compared as its bytes, so one read off the wire must have the one
// spelling, or one key could split into two groups.
inline bool SkipCanonicalValue(const uint8_t* data, size_t size, size_t* pos) {
  ValueType type;
  return SkipValue(data, size, pos, &type, /*canonical=*/true);
}

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_WIRE_H_
