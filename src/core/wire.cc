#include "src/core/wire.h"

#include <cstring>
#include <utility>

namespace pivot {

void PutString(std::vector<uint8_t>* out, std::string_view s) {
  PutVarint64(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

bool GetString(const uint8_t* data, size_t size, size_t* pos, std::string* s) {
  uint64_t len = 0;
  if (!GetVarint64(data, size, pos, &len)) {
    return false;
  }
  if (len > size - *pos) {
    return false;
  }
  s->assign(reinterpret_cast<const char*>(data + *pos), len);
  *pos += len;
  return true;
}

void PutStringList(std::vector<uint8_t>* out, const std::vector<std::string>& v) {
  PutVarint64(out, v.size());
  for (const auto& s : v) {
    PutString(out, s);
  }
}

bool GetStringList(const uint8_t* data, size_t size, size_t* pos, std::vector<std::string>* v) {
  uint64_t n = 0;
  if (!GetVarint64(data, size, pos, &n) || n > size) {
    return false;
  }
  v->clear();
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    if (!GetString(data, size, pos, &s)) {
      return false;
    }
    v->push_back(std::move(s));
  }
  return true;
}

void PutPlan(std::vector<uint8_t>* out, const ResultPlan& plan) {
  PutStringList(out, plan.group_fields);
  PutVarint64(out, plan.aggs.size());
  for (const auto& a : plan.aggs) {
    out->push_back(static_cast<uint8_t>(a.fn));
    out->push_back(a.from_state ? 1 : 0);
    PutString(out, a.input);
    PutString(out, a.output);
  }
}

bool GetPlan(const uint8_t* data, size_t size, size_t* pos, ResultPlan* plan) {
  uint64_t n = 0;
  if (!GetStringList(data, size, pos, &plan->group_fields) ||
      !GetVarint64(data, size, pos, &n) || n > size) {
    return false;
  }
  plan->aggs.clear();
  for (uint64_t i = 0; i < n; ++i) {
    if (size - *pos < 2) {
      return false;
    }
    AggSpec a;
    uint8_t fn = data[(*pos)++];
    if (fn > static_cast<uint8_t>(AggFn::kAverage)) {
      return false;
    }
    a.fn = static_cast<AggFn>(fn);
    a.from_state = data[(*pos)++] != 0;
    if (!GetString(data, size, pos, &a.input) || !GetString(data, size, pos, &a.output)) {
      return false;
    }
    plan->aggs.push_back(std::move(a));
  }
  return true;
}

void PutValue(std::vector<uint8_t>* out, const Value& v) {
  out->push_back(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      PutVarintSigned64(out, v.int_value());
      break;
    case ValueType::kDouble: {
      // Raw little-endian IEEE754; all supported platforms are LE.
      double d = v.double_value();
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      for (int i = 0; i < 8; ++i) {
        out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
      }
      break;
    }
    case ValueType::kString:
      PutString(out, v.string_value());
      break;
  }
}

bool GetValue(const uint8_t* data, size_t size, size_t* pos, Value* v) {
  if (*pos >= size) {
    return false;
  }
  uint8_t tag = data[(*pos)++];
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value();
      return true;
    case ValueType::kInt: {
      int64_t i = 0;
      if (!GetVarintSigned64(data, size, pos, &i)) {
        return false;
      }
      *v = Value(i);
      return true;
    }
    case ValueType::kDouble: {
      if (size - *pos < 8) {
        return false;
      }
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(data[*pos + static_cast<size_t>(i)]) << (8 * i);
      }
      *pos += 8;
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *v = Value(d);
      return true;
    }
    case ValueType::kString: {
      std::string s;
      if (!GetString(data, size, pos, &s)) {
        return false;
      }
      *v = Value(std::move(s));
      return true;
    }
    default:
      return false;
  }
}

}  // namespace pivot
