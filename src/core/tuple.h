// Tuple: a row of the streaming distributed dataset (§3).
//
// Tracepoint invocations produce tuples of named Values; happened-before joins
// concatenate tuples from causally-earlier advice. Field names are qualified
// by query alias ("incr.delta", "cl.procName") so joined tuples keep unambiguous
// column names, exactly like the paper's query examples.
//
// Names are stored interned: a Field holds a dense SymbolId (see
// src/core/symbol.h), so Get/Project compare integers instead of strings on
// the advice hot path. String-based accessors remain for cold paths (wire
// decode, reading result rows, rendering, tests); they intern or look up
// through the global SymbolTable.

#ifndef PIVOT_SRC_CORE_TUPLE_H_
#define PIVOT_SRC_CORE_TUPLE_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/symbol.h"
#include "src/core/value.h"

namespace pivot {

class Tuple {
 public:
  struct Field {
    SymbolId id = kInvalidSymbol;
    Value value;

    Field() = default;
    Field(SymbolId id, Value value) : id(id), value(std::move(value)) {}
    // Interning constructor: keeps `Tuple{{"name", Value(...)}}` working.
    Field(std::string_view name, Value value)
        : id(InternSymbol(name)), value(std::move(value)) {}

    std::string_view name() const { return SymbolName(id); }

    bool operator==(const Field& other) const {
      return id == other.id && value == other.value;
    }
  };

  Tuple() = default;
  Tuple(std::initializer_list<Field> fields) : fields_(fields) {}
  explicit Tuple(std::vector<Field> fields) : fields_(std::move(fields)) {}

  size_t size() const { return fields_.size(); }
  bool empty() const { return fields_.empty(); }
  const Field& field(size_t i) const { return fields_[i]; }
  const std::vector<Field>& fields() const { return fields_; }

  // Appends a field. Does not check for duplicates.
  void Append(SymbolId id, Value value) {
    fields_.push_back(Field{id, std::move(value)});
  }
  void Append(std::string_view name, Value value) {
    Append(InternSymbol(name), std::move(value));
  }
  // Appends every field of `other` (in place: `this · other`).
  void AppendAll(const Tuple& other) {
    fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
  }
  // Drops every field, keeping the capacity for reuse.
  void Clear() { fields_.clear(); }
  // Field `i`'s value, for a decoder that refills a row of the same columns
  // in place.
  Value* mutable_value(size_t i) { return &fields_[i].value; }

  // Returns the named field's value, or null if absent. The string overloads
  // compare against each field's interned name (lock-free; no table growth
  // for lookups of absent names).
  Value Get(SymbolId id) const;
  // The named field's value in place, or nullptr if absent.
  const Value* Find(SymbolId id) const;
  Value Get(std::string_view name) const;

  // Concatenation `t1 · t2`, the joined-tuple construction of §3: fields of
  // `this` followed by fields of `other`.
  Tuple Concat(const Tuple& other) const;

  // Projection Π: restricts to `ids`, preserving the given order. Missing
  // fields project to null (the analyzer rejects unknown fields up front).
  Tuple Project(const std::vector<SymbolId>& ids) const;
  // The same projection into `*out`, reusing its capacity.
  void ProjectInto(const std::vector<SymbolId>& ids, Tuple* out) const;

  // "(a=1, b=x)" rendering.
  std::string ToString() const;

  bool operator==(const Tuple& other) const { return fields_ == other.fields_; }

 private:
  std::vector<Field> fields_;
};

// Interns each name; for cold paths that still carry column names as strings.
std::vector<SymbolId> InternSymbols(const std::vector<std::string>& names);

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_TUPLE_H_
