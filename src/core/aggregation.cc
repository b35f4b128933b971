#include "src/core/aggregation.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <type_traits>
#include <utility>

#include "src/core/wire.h"
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

Aggregator::Aggregator(std::vector<std::string> group_fields, std::vector<AggSpec> specs) {
  auto cols = std::make_shared<Columns>();
  cols->group_ids = InternSymbols(group_fields);
  cols->state_names = std::move(group_fields);
  cols->spec_ids.reserve(specs.size());
  for (const AggSpec& spec : specs) {
    SpecIds ids;
    ids.input = InternSymbol(spec.input);
    ids.input_n = InternSymbol(spec.input + "#n");
    ids.output = InternSymbol(spec.output);
    ids.output_n = InternSymbol(spec.output + "#n");
    cols->spec_ids.push_back(ids);
    for (std::string& name : spec.StateColumns()) {
      cols->state_names.push_back(std::move(name));
    }
  }
  cols->specs = std::move(specs);
  cols_ = std::move(cols);
}

namespace {

// Index probes performed across all aggregators in the process (one count per
// slot inspected, hit or miss) — the observable cost of the hashed group
// index (docs/OBSERVABILITY.md). Striped per thread, so concurrent emitters
// count every tuple without sharing a cache line.
telemetry::Counter& GroupProbeCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agg.group_probe_count");
  return c;
}

// Streaming rows a set's encoding wrote in columns they did not hold: the
// set's first row's (docs/WIRE_FORMAT.md, "Tuple sets"). A row drops the
// columns it adds and reads null where it lacks one. A compiled query's rows
// share one projection, so this stays 0 unless hand-built advice mixes them.
telemetry::Counter& MismatchedRowsCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("agg.encode_mismatched_rows");
  return c;
}

constexpr size_t kInitialSlots = 16;

// MergeGroups' prefetch distances, in incoming groups: far enough ahead to
// cover a memory miss, near enough that the lines are still cached when
// the merge reaches them.
constexpr size_t kSlotAhead = 16;
constexpr size_t kGroupAhead = 8;

// Load factor bound of the group index: at most 7/8 full, counting one
// group about to be inserted.
bool IndexFits(size_t groups, size_t slots) { return (groups + 1) * 8 <= slots * 7; }

const Value& NullValue() {
  static const Value null;
  return null;
}

// The named field's value, null when absent (Tuple::Get without the copy).
const Value& FieldOrNull(const Tuple& t, SymbolId id) {
  const Value* v = t.Find(id);
  return v != nullptr ? *v : NullValue();
}

// Type-tagged FNV-1a over the group values, one value at a time. Must stay
// consistent with GroupValueEquals below: bit-identical values hash
// identically. The type tag keeps int 1 / double 1.0 / string "1" in distinct
// buckets: they are distinct groups, even though Value's operator== holds
// numerically-equal ints and doubles equal.
constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

uint64_t HashBytes(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * kFnvPrime;
  }
  return h;
}

uint64_t MixValue(uint64_t h, const Value& v) {
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

bool KeysEqual(const Value* a, const Value* b, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    if (!GroupValueEquals(a[i], b[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

template <typename SameKey>
std::pair<uint32_t, bool> Aggregator::FindOrInsert(uint64_t hash, SameKey same_key,
                                                   uint64_t* probes) {
  if (slots_.empty()) {
    slots_.resize(kInitialSlots);
  }
  const size_t mask = slots_.size() - 1;
  const auto tag = static_cast<uint32_t>(hash >> 32);
  size_t i = static_cast<size_t>(hash) & mask;
  ++*probes;
  while (slots_[i].group != kEmptySlot) {
    if (slots_[i].tag == tag && same_key(slots_[i].group)) {
      return {slots_[i].group, false};
    }
    i = (i + 1) & mask;
    ++*probes;
  }
  const auto group = static_cast<uint32_t>(hashes_.size());
  slots_[i] = IndexSlot{tag, group};
  hashes_.push_back(hash);
  if (!IndexFits(hashes_.size(), slots_.size())) {
    Rehash(slots_.size() * 2);
  }
  return {group, true};
}

void Aggregator::Reserve(size_t groups) {
  keys_.reserve(groups * key_width());
  accums_.reserve(groups * spec_count());
  hashes_.reserve(groups);
  size_t slots = std::max(slots_.size(), kInitialSlots);
  while (!IndexFits(groups, slots)) {
    slots *= 2;
  }
  if (slots != slots_.size()) {
    Rehash(slots);
  }
}

void Aggregator::Rehash(size_t slot_count) {
  // Rebuilt from the stored hashes: no group key is hashed again.
  slots_.assign(slot_count, IndexSlot{});
  const size_t mask = slots_.size() - 1;
  for (size_t g = 0; g < hashes_.size(); ++g) {
    size_t i = static_cast<size_t>(hashes_[g]) & mask;
    while (slots_[i].group != kEmptySlot) {
      i = (i + 1) & mask;
    }
    slots_[i] = IndexSlot{static_cast<uint32_t>(hashes_[g] >> 32), static_cast<uint32_t>(g)};
  }
}

uint32_t Aggregator::GroupFor(const Tuple& t) {
  const std::vector<SymbolId>& ids = cols_->group_ids;
  const size_t width = ids.size();
  uint64_t hash = kFnvOffset;
  for (SymbolId id : ids) {
    hash = MixValue(hash, FieldOrNull(t, id));
  }
  uint64_t probes = 0;
  auto [group, inserted] = FindOrInsert(
      hash,
      [&](uint32_t g) {
        const Value* key = keys_.data() + size_t{g} * width;
        for (size_t i = 0; i < width; ++i) {
          if (!GroupValueEquals(key[i], FieldOrNull(t, ids[i]))) {
            return false;
          }
        }
        return true;
      },
      &probes);
  GroupProbeCounter().Increment(probes);
  if (inserted) {
    for (SymbolId id : ids) {
      keys_.push_back(FieldOrNull(t, id));
    }
    accums_.resize(accums_.size() + spec_count());
  }
  return group;
}

void Aggregator::Combine(Accum* a, AggFn fn, const Value& v, int64_t n) {
  if (v.is_null()) {
    return;
  }
  switch (fn) {
    case AggFn::kCount:  // Combiner for Count is Sum (Table 3).
    case AggFn::kSum:
      a->value = a->has_value ? ValueAdd(a->value, v) : v;
      break;
    case AggFn::kMin:
      if (!a->has_value || v.Compare(a->value) < 0) {
        a->value = v;
      }
      break;
    case AggFn::kMax:
      if (!a->has_value || v.Compare(a->value) > 0) {
        a->value = v;
      }
      break;
    case AggFn::kAverage:
      a->value = a->has_value ? ValueAdd(a->value, v) : v;
      a->count += n;
      break;
  }
  a->has_value = true;
}

namespace {

// An Average's companion count: absent or non-int counts contribute nothing.
int64_t CountOf(const Value& n) { return n.is_int() ? n.int_value() : 0; }

}  // namespace

void Aggregator::AddInput(const Tuple& t) {
  // A raw input is a partial aggregate of one tuple: a count of 1, or the
  // input value with an Average count of 1. Null inputs contribute nothing.
  static const Value kOne(int64_t{1});
  const Columns& c = *cols_;
  const uint32_t group = GroupFor(t);  // May grow accums_.
  Accum* accums = accums_.data() + size_t{group} * c.specs.size();
  for (size_t i = 0; i < c.specs.size(); ++i) {
    const AggSpec& spec = c.specs[i];
    const SpecIds& ids = c.spec_ids[i];
    if (spec.from_state) {
      Combine(&accums[i], spec.fn, FieldOrNull(t, ids.input),
              CountOf(FieldOrNull(t, ids.input_n)));
    } else if (spec.fn == AggFn::kCount) {
      Combine(&accums[i], spec.fn, kOne, 0);
    } else {
      Combine(&accums[i], spec.fn, FieldOrNull(t, ids.input), 1);
    }
  }
}

template <typename Source>
void Aggregator::MergeGroups(Source& other) {
  constexpr bool kMove = !std::is_const_v<Source>;
  assert(&other != this && !empty() && other.key_width() == key_width() &&
         other.spec_count() == spec_count());
  const std::vector<AggSpec>& specs = cols_->specs;
  const size_t width = key_width();
  const size_t nspecs = specs.size();
  const size_t groups = other.hashes_.size();
  uint64_t probes = 0;
  for (size_t g = 0; g < groups; ++g) {
    // The incoming hashes are known up front, so hide the index's cache
    // misses behind the merge: the home slot of the group kSlotAhead on,
    // then the key and accumulators of the group that slot names, for the
    // group kGroupAhead on (its slot was fetched kSlotAhead - kGroupAhead
    // groups ago). A big total (the frontend's) outgrows the cache.
    const size_t mask = slots_.size() - 1;
    if (g + kSlotAhead < groups) {
      __builtin_prefetch(&slots_[static_cast<size_t>(other.hashes_[g + kSlotAhead]) & mask]);
    }
    if (g + kGroupAhead < groups) {
      const uint32_t ahead =
          slots_[static_cast<size_t>(other.hashes_[g + kGroupAhead]) & mask].group;
      if (ahead != kEmptySlot) {
        __builtin_prefetch(keys_.data() + size_t{ahead} * width);
        __builtin_prefetch(accums_.data() + size_t{ahead} * nspecs);
      }
    }
    auto* src_key = other.keys_.data() + g * width;
    auto* src_accums = other.accums_.data() + g * nspecs;
    auto [group, inserted] = FindOrInsert(
        other.hashes_[g],
        [&](uint32_t mine) {
          return KeysEqual(keys_.data() + size_t{mine} * width, src_key, width);
        },
        &probes);
    if (inserted) {
      for (size_t i = 0; i < width; ++i) {
        if constexpr (kMove) {
          keys_.push_back(std::move(src_key[i]));
        } else {
          keys_.push_back(src_key[i]);
        }
      }
      for (size_t i = 0; i < nspecs; ++i) {
        if constexpr (kMove) {
          accums_.push_back(std::move(src_accums[i]));
        } else {
          accums_.push_back(src_accums[i]);
        }
      }
      continue;
    }
    Accum* accums = accums_.data() + size_t{group} * nspecs;
    for (size_t i = 0; i < nspecs; ++i) {
      if (src_accums[i].has_value) {
        Combine(&accums[i], specs[i].fn, src_accums[i].value, src_accums[i].count);
      }
    }
  }
  GroupProbeCounter().Increment(probes);
}

bool Aggregator::SameColumns(const Aggregator& other) const {
  return cols_ == other.cols_ ||
         (cols_->group_ids == other.cols_->group_ids && cols_->specs == other.cols_->specs);
}

void Aggregator::Absorb(const Aggregator& other) {
  assert(SameColumns(other));
  if (empty()) {
    keys_ = other.keys_;
    accums_ = other.accums_;
    hashes_ = other.hashes_;
    slots_ = other.slots_;
  } else {
    MergeGroups(other);
  }
}

void Aggregator::Absorb(Aggregator&& other) {
  assert(SameColumns(other));
  if (empty()) {
    keys_.swap(other.keys_);
    accums_.swap(other.accums_);
    hashes_.swap(other.hashes_);
    slots_.swap(other.slots_);
  } else {
    MergeGroups(other);
  }
  other.Clear();
}

bool Aggregator::AddStateRow(std::vector<Value>* row, uint64_t* probes) {
  const Columns& c = *cols_;
  const size_t width = key_width();
  uint64_t hash = kFnvOffset;
  for (size_t i = 0; i < width; ++i) {
    hash = MixValue(hash, (*row)[i]);
  }
  auto [group, inserted] = FindOrInsert(
      hash, [&](uint32_t g) { return KeysEqual(keys_.data() + size_t{g} * width, row->data(), width); },
      probes);
  if (inserted) {
    for (size_t i = 0; i < width; ++i) {
      keys_.push_back(std::move((*row)[i]));
    }
    accums_.resize(accums_.size() + c.specs.size());
  }
  Accum* accums = accums_.data() + size_t{group} * c.specs.size();
  size_t col = width;
  for (size_t i = 0; i < c.specs.size(); ++i) {
    int64_t n = 0;
    if (c.specs[i].fn == AggFn::kAverage) {
      const Value& count = (*row)[col + 1];
      if (!count.is_null() && !count.is_int()) {
        return false;  // The caller drops the whole set.
      }
      n = CountOf(count);
    }
    Combine(&accums[i], c.specs[i].fn, (*row)[col], n);
    col += c.specs[i].fn == AggFn::kAverage ? 2 : 1;
  }
  return true;
}

std::vector<Tuple> Aggregator::StateTuples() const {
  const Columns& c = *cols_;
  const size_t width = key_width();
  std::vector<Tuple> out;
  out.reserve(group_count());
  for (size_t g = 0; g < group_count(); ++g) {
    std::vector<Tuple::Field> fields;
    fields.reserve(c.state_names.size());
    for (size_t i = 0; i < width; ++i) {
      fields.emplace_back(c.group_ids[i], keys_[g * width + i]);
    }
    const Accum* accums = accums_.data() + g * c.specs.size();
    for (size_t i = 0; i < c.specs.size(); ++i) {
      const Accum& a = accums[i];
      fields.emplace_back(c.spec_ids[i].output, a.has_value ? a.value : Value());
      if (c.specs[i].fn == AggFn::kAverage) {
        fields.emplace_back(c.spec_ids[i].output_n, Value(a.count));
      }
    }
    out.emplace_back(std::move(fields));
  }
  return out;
}

std::vector<Tuple> Aggregator::Finalize() const {
  const Columns& c = *cols_;
  const size_t width = key_width();
  std::vector<Tuple> out;
  out.reserve(group_count());
  for (size_t g = 0; g < group_count(); ++g) {
    std::vector<Tuple::Field> fields;
    fields.reserve(width + c.specs.size());
    for (size_t i = 0; i < width; ++i) {
      fields.emplace_back(c.group_ids[i], keys_[g * width + i]);
    }
    const Accum* accums = accums_.data() + g * c.specs.size();
    for (size_t i = 0; i < c.specs.size(); ++i) {
      const AggSpec& spec = c.specs[i];
      const Accum& a = accums[i];
      const SymbolId output = c.spec_ids[i].output;
      if (!a.has_value) {
        // COUNT of an empty group is 0; other aggregates of nothing are null.
        fields.emplace_back(output, spec.fn == AggFn::kCount ? Value(int64_t{0}) : Value());
      } else if (spec.fn == AggFn::kAverage) {
        fields.emplace_back(output, a.count == 0 ? Value()
                                                 : Value(a.value.AsDouble() /
                                                         static_cast<double>(a.count)));
      } else {
        fields.emplace_back(output, a.value);
      }
    }
    out.emplace_back(std::move(fields));
  }
  return out;
}

void Aggregator::Clear() {
  keys_.clear();
  accums_.clear();
  hashes_.clear();
  slots_.clear();
}

ResultSet::ResultSet(const ResultPlan& plan)
    : aggregated_(plan.aggregated()),
      agg_(aggregated_ ? Aggregator(plan.group_fields, plan.aggs) : Aggregator(nullptr)) {}

ResultSet::ResultSet(const BagSpec& spec) : ResultSet(spec.plan) {
  if (aggregated_) {
    return;  // Bounded by its groups.
  }
  const bool limited =
      spec.semantics == PackSemantics::kFirstN || spec.semantics == PackSemantics::kRecentN;
  cap_ = limited ? std::min<size_t>(spec.limit, kMaxBagTuples) : kMaxBagTuples;
  keep_last_ = spec.semantics == PackSemantics::kRecentN;
  // FirstN/RecentN leave rows out by design; only the valve counts.
  valve_ = !limited || spec.limit > kMaxBagTuples;
}

ResultSet ResultSet::EmptyLike() const {
  ResultSet out(aggregated_, Aggregator(agg_.cols_));
  out.keep_last_ = keep_last_;
  out.valve_ = valve_;
  out.cap_ = cap_;
  return out;
}

void ResultSet::AddInput(const Tuple& t) {
  if (aggregated_) {
    agg_.AddInput(t);
  } else {
    Append(&t, 1);
  }
}

template <typename It>
void ResultSet::Append(It from, size_t n) {
  const size_t take = std::min(n, keep_last_ ? cap_ : cap_ - std::min(cap_, rows_.size()));
  if (keep_last_) {
    from += static_cast<ptrdiff_t>(n - take);
  }
  rows_.insert(rows_.end(), from, from + static_cast<ptrdiff_t>(take));
  Trim(n - take);
}

void ResultSet::Trim(size_t uncopied) {
  const size_t excess = rows_.size() > cap_ ? rows_.size() - cap_ : 0;
  if (keep_last_) {
    rows_.erase(rows_.begin(), rows_.begin() + static_cast<ptrdiff_t>(excess));
  } else {
    rows_.resize(rows_.size() - excess);
  }
  if (valve_) {
    dropped_ += uncopied + excess;
  }
}

bool ResultSet::SamePlan(const ResultSet& other) const {
  return aggregated_ == other.aggregated_ && (!aggregated_ || agg_.SameColumns(other.agg_));
}

void ResultSet::Absorb(const ResultSet& other) {
  assert(SamePlan(other));
  dropped_ += other.dropped_;
  if (aggregated_) {
    agg_.Absorb(other.agg_);
  } else {
    Append(other.rows_.begin(), other.rows_.size());
  }
}

void ResultSet::Absorb(ResultSet&& other) {
  assert(SamePlan(other));
  dropped_ += std::exchange(other.dropped_, 0);
  if (aggregated_) {
    agg_.Absorb(std::move(other.agg_));
    return;
  }
  if (rows_.empty()) {
    rows_.swap(other.rows_);
    Trim(0);
  } else {
    Append(std::make_move_iterator(other.rows_.begin()), other.rows_.size());
  }
  other.rows_.clear();
}

std::vector<SymbolId> ResultSet::Columns() const {
  std::vector<SymbolId> ids;
  if (!aggregated_ && !rows_.empty()) {
    for (const Tuple::Field& f : rows_.front().fields()) {
      ids.push_back(f.id);
    }
  }
  return ids;
}

std::vector<Tuple> ResultSet::StateRows() const {
  return aggregated_ ? agg_.StateTuples() : rows_;
}

std::vector<Tuple> ResultSet::Finalize() const {
  return aggregated_ ? agg_.Finalize() : rows_;
}

void Aggregator::EncodeStateRows(std::vector<uint8_t>* out) const {
  const Columns& c = *cols_;
  const size_t width = key_width();
  for (size_t g = 0; g < group_count(); ++g) {
    for (size_t i = 0; i < width; ++i) {
      PutValue(out, keys_[g * width + i]);
    }
    const Accum* accums = accums_.data() + g * c.specs.size();
    for (size_t i = 0; i < c.specs.size(); ++i) {
      PutValue(out, accums[i].has_value ? accums[i].value : NullValue());
      if (c.specs[i].fn == AggFn::kAverage) {
        PutValue(out, Value(accums[i].count));
      }
    }
  }
}

bool Aggregator::DecodeStateRows(uint64_t rows, const uint8_t* data, size_t size, size_t* pos) {
  // Every value takes at least its tag byte, so the remaining bytes bound
  // how many rows can follow; the arrays are sized once.
  const size_t width = cols_->state_names.size();
  if (width == 0 || rows > (size - *pos) / width) {
    return false;
  }
  Reserve(group_count() + rows);
  std::vector<Value> row(width);
  uint64_t probes = 0;
  bool ok = true;
  for (uint64_t r = 0; ok && r < rows; ++r) {
    for (size_t i = 0; ok && i < width; ++i) {
      ok = GetValue(data, size, pos, &row[i]);
    }
    ok = ok && AddStateRow(&row, &probes);
  }
  GroupProbeCounter().Increment(probes);
  return ok;
}

// Wire form (docs/WIRE_FORMAT.md, "Tuple sets"):
//   set := varint (rows << 1 | valve), varint dropped, varint length, payload
//   payload := rows dense rows of values, in the columns' order (a retention
//              set's Columns(), or an aggregate's state columns); no names.

void SetFrame::Put(std::vector<uint8_t>* out) const {
  PutVarint64(out, rows << 1 | (valve ? 1 : 0));
  PutVarint64(out, dropped);
  PutVarint64(out, length);
  out->insert(out->end(), payload, payload + length);
}

bool SetFrame::Get(const uint8_t* data, size_t size, size_t* pos, SetFrame* frame) {
  uint64_t flagged = 0;
  uint64_t length = 0;
  if (!GetVarint64(data, size, pos, &flagged) || !GetVarint64(data, size, pos, &frame->dropped) ||
      !GetVarint64(data, size, pos, &length) || length > size - *pos) {
    return false;
  }
  frame->rows = flagged >> 1;
  frame->valve = (flagged & 1) != 0;
  frame->payload = data + *pos;
  frame->length = length;
  *pos += length;
  return true;
}

namespace {

bool SameColumns(const Tuple& row, const std::vector<SymbolId>& columns) {
  if (row.size() != columns.size()) {
    return false;
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    if (row.field(i).id != columns[i]) {
      return false;
    }
  }
  return true;
}

// Reads `n` dense rows of `columns` that fill data[0, size) exactly. Rows
// [skip, skip + take) are decoded into row_at(0..take); the others are
// validated and stepped over. Interns nothing.
template <typename RowAt>
bool GetDenseRows(const std::vector<SymbolId>& columns, uint64_t n, uint64_t skip, uint64_t take,
                  const uint8_t* data, size_t size, RowAt row_at) {
  if (columns.empty()) {
    // Rows without values: nothing to read, and only the kept ones are made.
    for (uint64_t i = 0; i < take; ++i) {
      row_at(i).Clear();
    }
    return size == 0;
  }
  if (n > size / columns.size()) {
    return false;  // Every value takes at least its tag byte.
  }
  size_t pos = 0;
  Value v;
  for (uint64_t r = 0; r < n; ++r) {
    Tuple* row = r >= skip && r - skip < take ? &row_at(r - skip) : nullptr;
    if (row != nullptr && SameColumns(*row, columns)) {
      // A reused row of these columns is refilled in place.
      for (size_t i = 0; i < columns.size(); ++i) {
        if (!GetValue(data, size, &pos, row->mutable_value(i))) {
          return false;
        }
      }
      continue;
    }
    if (row != nullptr) {
      row->Clear();
    }
    for (SymbolId id : columns) {
      if (!GetValue(data, size, &pos, &v)) {
        return false;
      }
      if (row != nullptr) {
        row->Append(id, std::move(v));
      }
    }
  }
  return pos == size;
}

}  // namespace

bool SetFrame::Fits(size_t width) const {
  return GetDenseRows(std::vector<SymbolId>(width), rows, 0, 0, payload, length,
                      [](uint64_t) -> Tuple& { std::abort(); });
}

namespace {

// Appends a set's framing around the payload `put_payload` appends. The
// length precedes the values: they are encoded first, then the length is
// appended and rotated in front of them.
template <typename PutPayload>
void PutFramed(uint64_t rows, bool valve, uint64_t dropped, std::vector<uint8_t>* out,
               PutPayload put_payload) {
  PutVarint64(out, rows << 1 | (valve ? 1 : 0));
  PutVarint64(out, dropped);
  const size_t values_start = out->size();
  put_payload();
  const size_t length_start = out->size();
  PutVarint64(out, length_start - values_start);
  std::rotate(out->begin() + static_cast<ptrdiff_t>(values_start),
              out->begin() + static_cast<ptrdiff_t>(length_start), out->end());
}

// Appends rows [first, last) as dense values in the first row's columns.
// Rows a step packs or emits all hold its projection, in order; anything
// else is looked up by id and counted.
void PutDenseRows(const Tuple* first, const Tuple* last, std::vector<uint8_t>* out) {
  uint64_t mismatched = 0;
  for (const Tuple* row = first; row != last; ++row) {
    bool same = row->size() == first->size();
    for (size_t i = 0; i < first->size(); ++i) {
      const SymbolId id = first->field(i).id;
      same = same && row->field(i).id == id;
      const Value* v = same ? &row->field(i).value : row->Find(id);
      PutValue(out, v != nullptr ? *v : NullValue());
    }
    mismatched += same ? 0 : 1;
  }
  if (mismatched != 0) {
    MismatchedRowsCounter().Increment(mismatched);
  }
}

}  // namespace

void ResultSet::Encode(std::vector<uint8_t>* out) const {
  PutFramed(size(), valve_, dropped_, out, [&] {
    if (aggregated_) {
      agg_.EncodeStateRows(out);
    } else {
      PutDenseRows(rows_.data(), rows_.data() + rows_.size(), out);
    }
  });
}

void ResultSet::EncodeNamed(std::vector<uint8_t>* out) const {
  if (aggregated_ || rows_.empty()) {
    PutStringList(out, ColumnNames());
    Encode(out);
    return;
  }
  uint64_t dropped = dropped_;  // Carried by the first slice.
  std::vector<SymbolId> columns;
  std::vector<std::string> names;
  for (size_t begin = 0; begin < rows_.size();) {
    const Tuple& first = rows_[begin];
    columns.clear();
    names.clear();
    for (const Tuple::Field& f : first.fields()) {
      columns.push_back(f.id);
      names.emplace_back(f.name());
    }
    size_t end = begin + 1;
    while (end < rows_.size() && SameColumns(rows_[end], columns)) {
      ++end;
    }
    PutStringList(out, names);
    PutFramed(end - begin, valve_, std::exchange(dropped, 0), out,
              [&] { PutDenseRows(&first, rows_.data() + end, out); });
    begin = end;
  }
}

bool ResultSet::Decode(const std::vector<SymbolId>& columns, const SetFrame& frame) {
  dropped_ += frame.dropped;
  const uint64_t rows = frame.rows;
  if (aggregated_) {
    size_t pos = 0;
    return agg_.DecodeStateRows(rows, frame.payload, frame.length, &pos) && pos == frame.length;
  }
  // Append's rule: a keep-first set takes what fits, a keep-last set the
  // last cap_ rows; the rest are only validated. A row with values takes a
  // byte or more, so the payload bounds what is reserved before decoding.
  const uint64_t take =
      std::min<uint64_t>(rows, keep_last_ ? cap_ : cap_ - std::min(cap_, rows_.size()));
  rows_.reserve(rows_.size() + std::min<uint64_t>(take, frame.length));
  if (!GetDenseRows(columns, rows, keep_last_ ? rows - take : 0, take, frame.payload,
                    frame.length, [this](uint64_t) -> Tuple& { return rows_.emplace_back(); })) {
    return false;
  }
  Trim(rows - take);
  return true;
}

bool ResultSet::DecodeRowsInto(const std::vector<SymbolId>& columns, const SetFrame& frame,
                               std::vector<Tuple>* out) const {
  assert(!aggregated_);
  const uint64_t rows = frame.rows;
  const uint64_t take = std::min<uint64_t>(rows, cap_);
  const bool ok = GetDenseRows(columns, rows, keep_last_ ? rows - take : 0, take, frame.payload,
                               frame.length,
                               [out](uint64_t i) -> Tuple& {
                                 if (i == out->size()) {
                                   out->emplace_back();
                                 }
                                 return (*out)[i];
                               });
  out->resize(ok ? take : 0);
  return ok;
}

std::vector<std::string> ResultSet::ColumnNames() const {
  if (aggregated_) {
    return agg_.cols_->state_names;
  }
  std::vector<std::string> names;
  for (SymbolId id : Columns()) {
    names.emplace_back(SymbolName(id));
  }
  return names;
}

bool ResultSet::DecodeNamed(const std::vector<std::string>& names, const SetFrame& frame) {
  if (aggregated_) {
    // The names must be exactly the state columns, so each value lands in
    // its column without a lookup or an intern.
    return names == agg_.cols_->state_names && Decode({}, frame);
  }
  return Decode(InternSymbols(names), frame);
}

}  // namespace pivot
