// The exports of a tracepoint invocation as advice reads them (§3).
//
// Every invocation carries the variables its site exports plus the default
// exports every tracepoint adds (host, procname, procid, timestamp/time,
// tracepoint). Woven advice reads only the few its Observe steps name, so a
// fire does not copy them into a tuple: plans read through an ExportView,
// which looks the site's fields up in place and computes a default only when
// it is read. The full tuple is built only for a trace recorder.

#ifndef PIVOT_SRC_CORE_EXPORTS_H_
#define PIVOT_SRC_CORE_EXPORTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/context.h"
#include "src/core/symbol.h"
#include "src/core/tuple.h"
#include "src/core/value.h"

namespace pivot {

// The exports every tracepoint adds to each invocation (§3), in order, with
// the type of value each carries. "time" aliases "timestamp" — §6.2 queries
// use the built-in `time` variable. host, procname and procid need a process
// runtime on the execution context; the rest are always there. The query
// compiler, the advice verifier, ExportView and the trace recorder's tuple
// all read this table.
struct DefaultExport {
  const char* name;
  ValueType type;
};
inline constexpr DefaultExport kDefaultExports[] = {
    {"host", ValueType::kString},  {"procname", ValueType::kString},
    {"procid", ValueType::kInt},   {"timestamp", ValueType::kInt},
    {"time", ValueType::kInt},     {"tracepoint", ValueType::kString},
};

// The default export named `name`, or nullptr.
inline const DefaultExport* FindDefaultExport(std::string_view name) {
  for (const DefaultExport& d : kDefaultExports) {
    if (name == d.name) {
      return &d;
    }
  }
  return nullptr;
}

// Read-only view of one invocation's exports. A site field shadows a default
// export of the same name (the first match wins, as in a tuple of the site's
// fields followed by the defaults). The clock is read at most once per view,
// on the first read of timestamp or time, so every plan of a fire shares one
// reading and a fire that reads no time never reads the clock.
class ExportView {
 public:
  // A materialized tuple (tests, replays): its fields are all the exports.
  ExportView(const Tuple& exports);  // NOLINT(google-explicit-constructor)
  // One fire of `tracepoint` with the site's `fields`, executing in
  // `runtime`. A null runtime has no host, procname or procid, and time 0.
  ExportView(const std::vector<Tuple::Field>& fields, const std::string& tracepoint,
             const ProcessRuntime* runtime);

  ExportView(const ExportView&) = delete;
  ExportView& operator=(const ExportView&) = delete;

  // The named export's value, or null if absent.
  Value Get(SymbolId id) const;

  // The site's fields, then every default export the fire has, in
  // kDefaultExports order: what the trace recorder records.
  Tuple Materialize() const;

 private:
  // Default export `i` (a kDefaultExports index) into `*out`; false if this
  // fire lacks it.
  bool Default(size_t i, Value* out) const;

  const std::vector<Tuple::Field>& fields_;
  const std::string* tracepoint_ = nullptr;  // Null: the fields are all there is.
  const ProcessRuntime* runtime_ = nullptr;
  mutable bool have_now_ = false;
  mutable int64_t now_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_EXPORTS_H_
