#include "src/core/aggregation.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "src/telemetry/metrics.h"

namespace pivot {

const char* AggFnName(AggFn fn) {
  switch (fn) {
    case AggFn::kCount:
      return "COUNT";
    case AggFn::kSum:
      return "SUM";
    case AggFn::kMin:
      return "MIN";
    case AggFn::kMax:
      return "MAX";
    case AggFn::kAverage:
      return "AVERAGE";
  }
  return "?";
}

std::vector<std::string> AggSpec::StateColumns() const {
  if (fn == AggFn::kAverage) {
    return {output, output + "#n"};
  }
  return {output};
}

Aggregator::Aggregator(std::vector<std::string> group_fields, std::vector<AggSpec> specs)
    : group_fields_(std::move(group_fields)), specs_(std::move(specs)) {
  group_ids_ = InternSymbols(group_fields_);
  spec_ids_.reserve(specs_.size());
  for (const AggSpec& spec : specs_) {
    SpecIds ids;
    ids.input = InternSymbol(spec.input);
    ids.input_n = InternSymbol(spec.input + "#n");
    ids.output = InternSymbol(spec.output);
    ids.output_n = InternSymbol(spec.output + "#n");
    spec_ids_.push_back(ids);
  }
}

namespace {

// Index probes performed across all aggregators in the process (one count per
// slot inspected, hit or miss) — the observable cost of the hashed group
// index (docs/OBSERVABILITY.md).
telemetry::Counter& GroupProbeCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agg.group_probe_count");
  return c;
}

// Type-tagged FNV-1a over the projected group values. Must stay consistent
// with GroupValueEquals below: bit-identical values hash identically. The
// type tag keeps int 1 / double 1.0 / string "1" in distinct buckets (they
// are distinct groups), unlike Value::Hash which deliberately collapses
// numerically-equal ints and doubles.
constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

uint64_t GroupKeyHash(const Tuple& t, const std::vector<SymbolId>& fields) {
  uint64_t h = kFnvOffset;
  for (SymbolId f : fields) {
    Value v = t.Get(f);
    h = (h ^ static_cast<uint8_t>(v.type())) * kFnvPrime;
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt: {
        int64_t i = v.int_value();
        h = HashBytes(h, &i, sizeof(i));
        break;
      }
      case ValueType::kDouble: {
        double d = v.double_value();
        h = HashBytes(h, &d, sizeof(d));
        break;
      }
      case ValueType::kString:
        h = HashBytes(h, v.string_value().data(), v.string_value().size());
        break;
    }
  }
  return h;
}

// Group-key equality: same type and exactly the same value. Doubles compare
// bitwise (consistent with hashing their raw bytes), NOT through
// Value::Compare's cross-type numeric ordering.
bool GroupValueEquals(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt:
      return a.int_value() == b.int_value();
    case ValueType::kDouble: {
      double da = a.double_value();
      double db = b.double_value();
      return std::memcmp(&da, &db, sizeof(da)) == 0;
    }
    case ValueType::kString:
      return a.string_value() == b.string_value();
  }
  return false;
}

// `key` holds the candidate group's projected key tuple (group_fields_ order,
// missing fields projected to null), `t` the incoming tuple.
bool GroupKeyEquals(const Tuple& key, const Tuple& t, const std::vector<SymbolId>& fields) {
  for (size_t i = 0; i < fields.size(); ++i) {
    if (!GroupValueEquals(key.field(i).value, t.Get(fields[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

Aggregator::Group& Aggregator::GroupFor(const Tuple& t) {
  if (slots_.empty()) {
    slots_.resize(16);
  }
  const uint64_t hash = GroupKeyHash(t, group_ids_);
  const size_t mask = slots_.size() - 1;
  size_t i = static_cast<size_t>(hash) & mask;
  uint64_t probes = 1;
  while (slots_[i].group != kEmptySlot) {
    if (slots_[i].hash == hash &&
        GroupKeyEquals(groups_[slots_[i].group].key_tuple, t, group_ids_)) {
      GroupProbeCounter().Increment(probes);
      return groups_[slots_[i].group];
    }
    i = (i + 1) & mask;
    ++probes;
  }
  GroupProbeCounter().Increment(probes);
  slots_[i] = IndexSlot{hash, groups_.size()};
  Group g;
  g.key_tuple = t.Project(group_ids_);
  g.accums.resize(specs_.size());
  groups_.push_back(std::move(g));
  if ((groups_.size() + 1) * 8 > slots_.size() * 7) {
    GrowIndex();
  }
  return groups_.back();
}

void Aggregator::GrowIndex() {
  std::vector<IndexSlot> old = std::move(slots_);
  slots_.assign(old.size() * 2, IndexSlot{});
  const size_t mask = slots_.size() - 1;
  for (const IndexSlot& slot : old) {
    if (slot.group == kEmptySlot) {
      continue;
    }
    size_t i = static_cast<size_t>(slot.hash) & mask;
    while (slots_[i].group != kEmptySlot) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
  }
}

namespace {

// Combine-style accumulation: `v` is a partial aggregate of `fn` and `n` its
// companion count (Average only). Shared by AddState and from_state inputs.
void CombineInto(Aggregator::AccumRef a, AggFn fn, const Value& v, int64_t n) {
  if (v.is_null()) {
    return;
  }
  switch (fn) {
    case AggFn::kCount:  // Combiner for Count is Sum (Table 3).
    case AggFn::kSum:
      a.value = a.has_value ? ValueAdd(a.value, v) : v;
      a.has_value = true;
      break;
    case AggFn::kMin:
      if (!a.has_value || v.Compare(a.value) < 0) {
        a.value = v;
      }
      a.has_value = true;
      break;
    case AggFn::kMax:
      if (!a.has_value || v.Compare(a.value) > 0) {
        a.value = v;
      }
      a.has_value = true;
      break;
    case AggFn::kAverage:
      a.value = a.has_value ? ValueAdd(a.value, v) : v;
      a.count += n;
      a.has_value = true;
      break;
  }
}

}  // namespace

void Aggregator::AddInput(const Tuple& t) {
  Group& g = GroupFor(t);
  for (size_t i = 0; i < specs_.size(); ++i) {
    const AggSpec& spec = specs_[i];
    const SpecIds& ids = spec_ids_[i];
    Accum& a = g.accums[i];
    if (spec.from_state) {
      Value n = t.Get(ids.input_n);
      CombineInto(AccumRef{a.has_value, a.value, a.count}, spec.fn, t.Get(ids.input),
                  n.is_null() ? 0 : n.int_value());
      continue;
    }
    switch (spec.fn) {
      case AggFn::kCount:
        a.value = a.has_value ? ValueAdd(a.value, Value(int64_t{1})) : Value(int64_t{1});
        a.has_value = true;
        break;
      case AggFn::kSum: {
        Value v = t.Get(ids.input);
        if (v.is_null()) {
          break;  // Nulls do not contribute to sums.
        }
        a.value = a.has_value ? ValueAdd(a.value, v) : v;
        a.has_value = true;
        break;
      }
      case AggFn::kMin: {
        Value v = t.Get(ids.input);
        if (v.is_null()) {
          break;
        }
        if (!a.has_value || v.Compare(a.value) < 0) {
          a.value = v;
        }
        a.has_value = true;
        break;
      }
      case AggFn::kMax: {
        Value v = t.Get(ids.input);
        if (v.is_null()) {
          break;
        }
        if (!a.has_value || v.Compare(a.value) > 0) {
          a.value = v;
        }
        a.has_value = true;
        break;
      }
      case AggFn::kAverage: {
        Value v = t.Get(ids.input);
        if (v.is_null()) {
          break;
        }
        a.value = a.has_value ? ValueAdd(a.value, v) : v;
        a.count += 1;
        a.has_value = true;
        break;
      }
    }
  }
}

void Aggregator::AddState(const Tuple& t) {
  Group& g = GroupFor(t);
  for (size_t i = 0; i < specs_.size(); ++i) {
    const AggSpec& spec = specs_[i];
    const SpecIds& ids = spec_ids_[i];
    Accum& a = g.accums[i];
    Value n = t.Get(ids.output_n);
    CombineInto(AccumRef{a.has_value, a.value, a.count}, spec.fn, t.Get(ids.output),
                n.is_null() ? 0 : n.int_value());
  }
}

std::vector<Tuple> Aggregator::StateTuples() const {
  std::vector<Tuple> out;
  out.reserve(groups_.size());
  for (const auto& g : groups_) {
    Tuple t = g.key_tuple;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      const SpecIds& ids = spec_ids_[i];
      const Accum& a = g.accums[i];
      t.Append(ids.output, a.has_value ? a.value : Value());
      if (spec.fn == AggFn::kAverage) {
        t.Append(ids.output_n, Value(a.count));
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tuple> Aggregator::Finalize() const {
  std::vector<Tuple> out;
  out.reserve(groups_.size());
  for (const auto& g : groups_) {
    Tuple t = g.key_tuple;
    for (size_t i = 0; i < specs_.size(); ++i) {
      const AggSpec& spec = specs_[i];
      const Accum& a = g.accums[i];
      if (!a.has_value) {
        // COUNT of an empty group is 0; other aggregates of nothing are null.
        t.Append(spec.output, spec.fn == AggFn::kCount ? Value(int64_t{0}) : Value());
        continue;
      }
      if (spec.fn == AggFn::kAverage) {
        t.Append(spec.output,
                 a.count == 0 ? Value() : Value(a.value.AsDouble() / static_cast<double>(a.count)));
      } else {
        t.Append(spec.output, a.value);
      }
    }
    out.push_back(std::move(t));
  }
  return out;
}

void Aggregator::Clear() {
  groups_.clear();
  slots_.clear();
}

ResultSet::ResultSet(const ResultPlan& plan)
    : aggregated_(plan.aggregated()), agg_(plan.group_fields, plan.aggs) {}

void ResultSet::AddInput(const Tuple& t) {
  if (aggregated_) {
    agg_.AddInput(t);
  } else {
    rows_.push_back(t);
  }
}

void ResultSet::Absorb(const std::vector<Tuple>& taken) {
  if (!aggregated_) {
    rows_.insert(rows_.end(), taken.begin(), taken.end());
    return;
  }
  for (const Tuple& t : taken) {
    agg_.AddState(t);
  }
}

std::vector<Tuple> ResultSet::Take() {
  if (!aggregated_) {
    return std::exchange(rows_, {});
  }
  std::vector<Tuple> state = agg_.StateTuples();
  agg_.Clear();
  return state;
}

std::vector<Tuple> ResultSet::Finalize() const {
  return aggregated_ ? agg_.Finalize() : rows_;
}

}  // namespace pivot
