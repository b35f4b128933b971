#include "src/core/tuple.h"

namespace pivot {

Value Tuple::Get(SymbolId id) const {
  const Value* v = Find(id);
  return v != nullptr ? *v : Value();
}

const Value* Tuple::Find(SymbolId id) const {
  for (const auto& f : fields_) {
    if (f.id == id) {
      return &f.value;
    }
  }
  return nullptr;
}

Value Tuple::Get(std::string_view name) const {
  for (const auto& f : fields_) {
    if (f.name() == name) {
      return f.value;
    }
  }
  return Value();
}


Tuple Tuple::Concat(const Tuple& other) const {
  Tuple out = *this;
  out.fields_.reserve(fields_.size() + other.fields_.size());
  for (const auto& f : other.fields_) {
    out.fields_.push_back(f);
  }
  return out;
}

Tuple Tuple::Project(const std::vector<SymbolId>& ids) const {
  Tuple out;
  ProjectInto(ids, &out);
  return out;
}

void Tuple::ProjectInto(const std::vector<SymbolId>& ids, Tuple* out) const {
  out->Clear();
  out->fields_.reserve(ids.size());
  for (SymbolId id : ids) {
    out->Append(id, Get(id));
  }
}

std::string Tuple::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) {
      out += ", ";
    }
    out += fields_[i].name();
    out += "=";
    out += fields_[i].value.ToString();
  }
  out += ")";
  return out;
}

std::vector<SymbolId> InternSymbols(const std::vector<std::string>& names) {
  std::vector<SymbolId> ids;
  ids.reserve(names.size());
  for (const auto& n : names) {
    ids.push_back(InternSymbol(n));
  }
  return ids;
}

}  // namespace pivot
