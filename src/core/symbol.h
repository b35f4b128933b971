// Symbol interning for tuple field and export names.
//
// Pivot Tracing tuples carry qualified column names ("incr.delta",
// "cl.procName") and the advice hot path — Observe/Let/Filter/Pack/Emit on
// every tracepoint fire — used to resolve each of them by std::string
// comparison. The interner maps every distinct name to a dense SymbolId once,
// so Tuple::Get/Project and bound expression evaluation become integer
// compares with no allocation.
//
// Concurrency contract:
//  * Intern() takes a mutex and may allocate — call it at compile/weave time
//    (or on first use) and keep the id.
//  * NameOf() / size() are safe concurrently with Intern(): names live in
//    fixed-size chunks whose pointer slots are published with
//    release/acquire, so readers never observe a moving string.
//  * Ids are process-local and never cross the wire; report frames write
//    names and re-intern on decode (symbol tables on two hosts need not
//    agree), and baggage carries no names at all.

#ifndef PIVOT_SRC_CORE_SYMBOL_H_
#define PIVOT_SRC_CORE_SYMBOL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace pivot {

// Dense process-local identifier of an interned name. Equal ids <=> equal
// names (within one process, one SymbolTable).
using SymbolId = uint32_t;

// "No such symbol". Never returned by Intern.
inline constexpr SymbolId kInvalidSymbol = UINT32_MAX;

class SymbolTable {
 public:
  SymbolTable() = default;
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id of `name`, interning it on first sight. O(1) amortized;
  // takes the table mutex.
  SymbolId Intern(std::string_view name);

  // The id of `name` if it is interned, else kInvalidSymbol. Never interns;
  // takes the table mutex.
  SymbolId Find(std::string_view name) const;

  // The name behind `id`; empty view for kInvalidSymbol / out-of-range.
  // Lock-free: safe on hot paths (serialization, rendering).
  std::string_view NameOf(SymbolId id) const;

  // Number of interned symbols.
  size_t size() const { return count_.load(std::memory_order_acquire); }

  // The process-wide table every Tuple/Expr/plan shares.
  static SymbolTable& Global();

 private:
  static constexpr size_t kChunkBits = 10;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // 1024 names.
  static constexpr size_t kMaxChunks = 4096;  // 4M symbols; far beyond any workload.

  using Chunk = std::array<std::string, kChunkSize>;

  mutable std::mutex mu_;
  std::unordered_map<std::string_view, SymbolId> ids_;  // Views into chunks.
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  std::atomic<uint32_t> count_{0};
};

// Shorthands over SymbolTable::Global().
inline SymbolId InternSymbol(std::string_view name) {
  return SymbolTable::Global().Intern(name);
}
inline std::string_view SymbolName(SymbolId id) {
  return SymbolTable::Global().NameOf(id);
}

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_SYMBOL_H_
