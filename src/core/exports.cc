#include "src/core/exports.h"

#include <array>
#include <iterator>

namespace pivot {

namespace {

// Pre-interned ids of kDefaultExports, in table order, so a default read
// compares integers and skips the interner.
using DefaultExportIds = std::array<SymbolId, std::size(kDefaultExports)>;

const DefaultExportIds& DefaultIds() {
  static const DefaultExportIds ids = [] {
    DefaultExportIds out{};
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = InternSymbol(kDefaultExports[i].name);
    }
    return out;
  }();
  return ids;
}

}  // namespace

ExportView::ExportView(const Tuple& exports) : fields_(exports.fields()) {}

ExportView::ExportView(const std::vector<Tuple::Field>& fields, const std::string& tracepoint,
                       const ProcessRuntime* runtime)
    : fields_(fields), tracepoint_(&tracepoint), runtime_(runtime) {}

bool ExportView::Default(size_t i, Value* out) const {
  static_assert(std::size(kDefaultExports) == 6, "one case per default export");
  if (i < 3 && runtime_ == nullptr) {
    return false;  // host, procname and procid name a process.
  }
  switch (i) {
    case 0:
      *out = Value(runtime_->info.host);
      break;
    case 1:
      *out = Value(runtime_->info.process_name);
      break;
    case 2:
      *out = Value(runtime_->info.process_id);
      break;
    case 3:  // timestamp
    case 4:  // time
      if (!have_now_) {
        now_ = runtime_ != nullptr ? runtime_->NowMicros() : 0;
        have_now_ = true;
      }
      *out = Value(now_);
      break;
    default:
      *out = Value(*tracepoint_);
      break;
  }
  return true;
}

Value ExportView::Get(SymbolId id) const {
  for (const Tuple::Field& f : fields_) {
    if (f.id == id) {
      return f.value;
    }
  }
  Value v;
  if (tracepoint_ != nullptr) {
    const DefaultExportIds& ids = DefaultIds();
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == id) {
        Default(i, &v);
        break;
      }
    }
  }
  return v;
}

Tuple ExportView::Materialize() const {
  std::vector<Tuple::Field> fields = fields_;
  if (tracepoint_ != nullptr) {
    const DefaultExportIds& ids = DefaultIds();
    Value v;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (Default(i, &v)) {
        fields.emplace_back(ids[i], std::move(v));
      }
    }
  }
  return Tuple(std::move(fields));
}

}  // namespace pivot
