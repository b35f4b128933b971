#include "src/core/aggregation.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <iterator>
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
  cols->word_width = (specs.size() + 63) / 64;  // The has-value bits lead.
  for (const AggSpec& spec : specs) {
    SpecIds ids;
    ids.input = InternSymbol(spec.input);
    ids.input_n = InternSymbol(spec.input + "#n");
    ids.output = InternSymbol(spec.output);
    ids.output_n = InternSymbol(spec.output + "#n");
    cols->spec_ids.push_back(ids);
    StateSlot slot;
    if (spec.fn == AggFn::kCount || spec.fn == AggFn::kAverage) {
      slot.word = static_cast<uint32_t>(cols->word_width++);
    }
    if (spec.fn != AggFn::kCount) {
      slot.value = static_cast<uint32_t>(cols->value_width++);
    }
    cols->state.push_back(slot);
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
constexpr size_t kKeyAhead = 4;

// Load factor bound of the group index: at most 7/8 full, counting one
// group about to be inserted.
bool IndexFits(size_t groups, size_t slots) { return (groups + 1) * 8 <= slots * 7; }

// Reserves room for `n` elements, at least doubling a capacity it grows, so
// a run of small reservations reallocates logarithmically often.
template <typename T>
void ReserveGeometric(std::vector<T>* v, size_t n) {
  if (n > v->capacity()) {
    v->reserve(std::max(n, 2 * v->capacity()));
  }
}

const Value& NullValue() {
  static const Value null;
  return null;
}

// The named field's value, null when absent (Tuple::Get without the copy).
const Value& FieldOrNull(const Tuple& t, SymbolId id) {
  const Value* v = t.Find(id);
  return v != nullptr ? *v : NullValue();
}

// FNV-1a over a group key's bytes.
uint64_t HashKey(const uint8_t* p, size_t n) {
  uint64_t h = 0xCBF29CE484222325ULL;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ULL;
  }
  return h;
}

// Spec `spec`'s has-value bit in a group's words.
bool HasValue(const uint64_t* words, size_t spec) {
  return ((words[spec / 64] >> (spec % 64)) & 1) != 0;
}
void MarkValue(uint64_t* words, size_t spec) { words[spec / 64] |= uint64_t{1} << (spec % 64); }

Value CountValue(uint64_t word) { return Value(static_cast<int64_t>(word)); }

// An Average's companion count: absent or non-int counts contribute nothing.
int64_t CountOf(const Value& n) { return n.is_int() ? n.int_value() : 0; }

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

void Aggregator::AppendState() {
  words_.resize(words_.size() + cols_->word_width);
  values_.resize(values_.size() + cols_->value_width);
}

std::pair<uint32_t, bool> Aggregator::GroupForKey(const uint8_t* key, size_t size,
                                                  uint64_t hash, uint64_t* probes) {
  auto [group, inserted] = FindOrInsert(
      hash,
      [&](uint32_t g) {
        const size_t begin = KeyBegin(g);
        return key_ends_[g] - begin == size &&
               (size == 0 || std::memcmp(key_bytes_.data() + begin, key, size) == 0);
      },
      probes);
  if (inserted) {
    key_bytes_.insert(key_bytes_.end(), key, key + size);
    key_ends_.push_back(key_bytes_.size());
    AppendState();
  }
  return {group, inserted};
}

void Aggregator::Reserve(size_t groups) {
  ReserveGeometric(&key_ends_, groups);
  ReserveGeometric(&words_, groups * cols_->word_width);
  ReserveGeometric(&values_, groups * cols_->value_width);
  ReserveGeometric(&hashes_, groups);
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
  // The key is written to the end of the arena, then looked up there: a new
  // group keeps it, an existing one takes it back off.
  const size_t key = key_bytes_.size();
  for (SymbolId id : cols_->group_ids) {
    PutValue(&key_bytes_, FieldOrNull(t, id));
  }
  const size_t size = key_bytes_.size() - key;
  uint64_t probes = 0;
  auto [group, inserted] = FindOrInsert(
      HashKey(key_bytes_.data() + key, size),
      [&](uint32_t g) {
        const size_t begin = KeyBegin(g);
        return key_ends_[g] - begin == size &&
               (size == 0 ||
                std::memcmp(key_bytes_.data() + begin, key_bytes_.data() + key, size) == 0);
      },
      &probes);
  GroupProbeCounter().Increment(probes);
  if (inserted) {
    key_ends_.push_back(key_bytes_.size());
    AppendState();
  } else {
    key_bytes_.resize(key);
  }
  return group;
}

void Aggregator::AddCount(size_t i, uint64_t* words, uint64_t n) const {
  // The combiner for Count is Sum (Table 3), wrapping as ValueAdd does.
  words[cols_->state[i].word] += n;
  MarkValue(words, i);
}

void Aggregator::Combine(size_t i, uint64_t* words, Value* values, const Value& v,
                         int64_t n) const {
  const AggFn fn = cols_->specs[i].fn;
  const StateSlot slot = cols_->state[i];
  if (v.is_null() || (fn == AggFn::kCount && !v.is_int())) {
    return;
  }
  if (fn == AggFn::kCount) {
    AddCount(i, words, static_cast<uint64_t>(v.int_value()));
    return;
  }
  Value& acc = values[slot.value];
  const bool has = HasValue(words, i);
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kAverage:
      acc = has ? ValueAdd(acc, v) : v;
      break;
    case AggFn::kMin:
      if (!has || v.Compare(acc) < 0) {
        acc = v;
      }
      break;
    case AggFn::kMax:
      if (!has || v.Compare(acc) > 0) {
        acc = v;
      }
      break;
    case AggFn::kCount:
      break;
  }
  if (fn == AggFn::kAverage) {
    words[slot.word] += static_cast<uint64_t>(n);
  }
  MarkValue(words, i);
}

void Aggregator::AddInput(const Tuple& t) {
  // A raw input is a partial aggregate of one tuple: a count of 1, or the
  // input value with an Average count of 1. Null inputs contribute nothing.
  static const Value kOne(int64_t{1});
  const Columns& c = *cols_;
  const uint32_t group = GroupFor(t);  // May grow the state rows.
  uint64_t* words = words_.data() + size_t{group} * c.word_width;
  Value* values = values_.data() + size_t{group} * c.value_width;
  for (size_t i = 0; i < c.specs.size(); ++i) {
    const AggSpec& spec = c.specs[i];
    const SpecIds& ids = c.spec_ids[i];
    if (spec.from_state) {
      Combine(i, words, values, FieldOrNull(t, ids.input), CountOf(FieldOrNull(t, ids.input_n)));
    } else if (spec.fn == AggFn::kCount) {
      Combine(i, words, values, kOne, 0);
    } else {
      Combine(i, words, values, FieldOrNull(t, ids.input), 1);
    }
  }
}

// Always inlined: GCC counts a prefetch as no side effect, so it deletes a
// call to an out-of-line function that only prefetches.
template <typename HashOf>
[[gnu::always_inline]] inline void Aggregator::PrefetchAhead(size_t g, size_t n,
                                                             HashOf hash_of) const {
  // The incoming hashes are known up front, so hide the index's cache misses
  // behind the merge: the home slot of the group kSlotAhead on, then the key
  // end and state rows of the group that slot names, for the group
  // kGroupAhead on, then that group's key bytes kKeyAhead on. A big total
  // (the frontend's) outgrows the cache.
  const size_t mask = slots_.size() - 1;
  auto ahead = [&](size_t distance) {
    return slots_[static_cast<size_t>(hash_of(g + distance)) & mask].group;
  };
  if (g + kSlotAhead < n) {
    __builtin_prefetch(&slots_[static_cast<size_t>(hash_of(g + kSlotAhead)) & mask]);
  }
  if (g + kGroupAhead < n) {
    if (const uint32_t a = ahead(kGroupAhead); a != kEmptySlot) {
      __builtin_prefetch(&key_ends_[a == 0 ? 0 : a - 1]);
      __builtin_prefetch(words_.data() + size_t{a} * cols_->word_width);
      __builtin_prefetch(values_.data() + size_t{a} * cols_->value_width);
    }
  }
  if (g + kKeyAhead < n) {
    if (const uint32_t a = ahead(kKeyAhead); a != kEmptySlot) {
      __builtin_prefetch(key_bytes_.data() + KeyBegin(a));
    }
  }
}

void Aggregator::MergeGroups(Aggregator& other) {
  assert(&other != this && !empty() && other.key_width() == key_width() &&
         other.spec_count() == spec_count());
  const Columns& c = *cols_;
  const size_t word_width = c.word_width;
  const size_t value_width = c.value_width;
  const size_t groups = other.hashes_.size();
  uint64_t probes = 0;
  for (size_t g = 0; g < groups; ++g) {
    PrefetchAhead(g, groups, [&other](size_t j) { return other.hashes_[j]; });
    const size_t key = other.KeyBegin(g);
    const auto [group, inserted] = GroupForKey(
        other.key_bytes_.data() + key, other.key_ends_[g] - key, other.hashes_[g], &probes);
    uint64_t* words = words_.data() + size_t{group} * word_width;
    Value* values = values_.data() + size_t{group} * value_width;
    auto* src_words = other.words_.data() + g * word_width;
    auto* src_values = other.values_.data() + g * value_width;
    if (inserted) {
      std::copy(src_words, src_words + word_width, words);
      std::move(src_values, src_values + value_width, values);
      continue;
    }
    for (size_t i = 0; i < c.specs.size(); ++i) {
      if (!HasValue(src_words, i)) {
        continue;
      }
      const StateSlot slot = c.state[i];
      switch (c.specs[i].fn) {
        case AggFn::kCount:
          AddCount(i, words, src_words[slot.word]);
          break;
        case AggFn::kAverage:
          Combine(i, words, values, src_values[slot.value],
                  static_cast<int64_t>(src_words[slot.word]));
          break;
        default:
          Combine(i, words, values, src_values[slot.value], 0);
      }
    }
  }
  GroupProbeCounter().Increment(probes);
}

bool Aggregator::SameColumns(const Aggregator& other) const {
  return cols_ == other.cols_ ||
         (cols_->group_ids == other.cols_->group_ids && cols_->specs == other.cols_->specs);
}

void Aggregator::Absorb(Aggregator&& other) {
  assert(SameColumns(other));
  if (empty()) {
    key_bytes_.swap(other.key_bytes_);
    key_ends_.swap(other.key_ends_);
    words_.swap(other.words_);
    values_.swap(other.values_);
    hashes_.swap(other.hashes_);
    slots_.swap(other.slots_);
  } else {
    MergeGroups(other);
  }
  other.Clear();
}

void Aggregator::AppendKey(size_t g, std::vector<Tuple::Field>* fields) const {
  // Read straight from the arena, without GetValue's checks: every key
  // there was written by PutValue or passed SkipCanonicalValue.
  const uint8_t* p = key_bytes_.data() + KeyBegin(g);
  for (SymbolId id : cols_->group_ids) {
    const auto type = static_cast<ValueType>(*p++);
    if (type == ValueType::kNull) {
      fields->emplace_back(id, Value());
      continue;
    }
    if (type == ValueType::kDouble) {
      double d = 0;
      std::memcpy(&d, p, sizeof(d));
      p += sizeof(d);
      fields->emplace_back(id, Value(d));
      continue;
    }
    uint64_t n = 0;  // The int, or the string's length.
    for (int shift = 0;; shift += 7) {
      n |= static_cast<uint64_t>(*p & 0x7F) << shift;
      if ((*p++ & 0x80) == 0) {
        break;
      }
    }
    if (type == ValueType::kInt) {
      fields->emplace_back(id, Value(ZigZagDecode(n)));
    } else {
      fields->emplace_back(id, Value(std::string_view(reinterpret_cast<const char*>(p), n)));
      p += n;
    }
  }
}

template <typename Put>
void Aggregator::ForEachState(size_t g, Put put) const {
  const Columns& c = *cols_;
  const uint64_t* words = words_.data() + g * c.word_width;
  const Value* values = values_.data() + g * c.value_width;
  for (size_t i = 0; i < c.specs.size(); ++i) {
    const StateSlot slot = c.state[i];
    const SpecIds& ids = c.spec_ids[i];
    if (c.specs[i].fn == AggFn::kCount) {
      put(ids.output, HasValue(words, i) ? CountValue(words[slot.word]) : NullValue());
      continue;
    }
    put(ids.output, values[slot.value]);
    if (c.specs[i].fn == AggFn::kAverage) {
      put(ids.output_n, CountValue(words[slot.word]));
    }
  }
}

std::vector<Tuple> Aggregator::StateTuples() const {
  std::vector<Tuple> out;
  out.reserve(group_count());
  for (size_t g = 0; g < group_count(); ++g) {
    std::vector<Tuple::Field> fields;
    fields.reserve(cols_->state_names.size());
    AppendKey(g, &fields);
    ForEachState(g, [&fields](SymbolId id, const Value& v) { fields.emplace_back(id, v); });
    out.emplace_back(std::move(fields));
  }
  return out;
}

std::vector<Tuple> Aggregator::Finalize() const {
  const Columns& c = *cols_;
  std::vector<Tuple> out;
  out.reserve(group_count());
  for (size_t g = 0; g < group_count(); ++g) {
    std::vector<Tuple::Field> fields;
    fields.reserve(key_width() + c.specs.size());
    AppendKey(g, &fields);
    const uint64_t* words = words_.data() + g * c.word_width;
    const Value* values = values_.data() + g * c.value_width;
    for (size_t i = 0; i < c.specs.size(); ++i) {
      const StateSlot slot = c.state[i];
      const SymbolId output = c.spec_ids[i].output;
      switch (c.specs[i].fn) {
        case AggFn::kCount:  // COUNT of an empty group is 0.
          fields.emplace_back(output, static_cast<int64_t>(words[slot.word]));
          break;
        case AggFn::kAverage: {
          const auto count = static_cast<int64_t>(words[slot.word]);
          if (!HasValue(words, i) || count == 0) {
            fields.emplace_back(output, NullValue());
          } else {
            fields.emplace_back(output, values[slot.value].AsDouble() / static_cast<double>(count));
          }
          break;
        }
        default:  // Other aggregates of nothing are null.
          fields.emplace_back(output, values[slot.value]);
      }
    }
    out.emplace_back(std::move(fields));
  }
  return out;
}

void Aggregator::EncodeStateRows(std::vector<uint8_t>* out) const {
  for (size_t g = 0; g < group_count(); ++g) {
    out->insert(out->end(), key_bytes_.begin() + static_cast<ptrdiff_t>(KeyBegin(g)),
                key_bytes_.begin() + static_cast<ptrdiff_t>(key_ends_[g]));
    ForEachState(g, [out](SymbolId, const Value& v) { PutValue(out, v); });
  }
}

bool Aggregator::ScanStateRows(uint64_t rows, const uint8_t* data, size_t size,
                               RowKey* keys) const {
  // Every value takes at least its tag byte, so the bytes bound how many
  // rows can follow.
  const Columns& c = *cols_;
  const size_t width = c.state_names.size();
  if (width == 0 || rows > size / width) {
    return false;
  }
  size_t pos = 0;
  ValueType type;
  auto int_or_null = [&type] { return type == ValueType::kInt || type == ValueType::kNull; };
  for (uint64_t r = 0; r < rows; ++r) {
    const size_t key = pos;
    for (size_t i = 0; i < key_width(); ++i) {
      if (!SkipCanonicalValue(data, size, &pos)) {
        return false;
      }
    }
    if (keys != nullptr) {
      keys[r] = RowKey{pos, HashKey(data + key, pos - key)};
    }
    for (const AggSpec& spec : c.specs) {
      // A COUNT, or an Average's count, must be an int or null.
      if (!SkipValue(data, size, &pos, &type) || (spec.fn == AggFn::kCount && !int_or_null()) ||
          (spec.fn == AggFn::kAverage && (!SkipValue(data, size, &pos, &type) || !int_or_null()))) {
        return false;
      }
    }
  }
  return pos == size;
}

bool Aggregator::DecodeStateRows(uint64_t rows, const uint8_t* data, size_t size) {
  // The first pass notes a RowKey per row: on the stack for up to 64 rows,
  // on the heap for more. Most decodes are small: in perfbench's hdfs_diag
  // 98% carry at most 64 rows (three in four carry one), and taking every
  // decode's array from the heap raised that workload's peak RSS by 1.7%.
  // rpc_storm's 64k-key reports carry thousands of rows each. A row takes a
  // byte or more, so the payload bounds them.
  constexpr size_t kStackRows = 64;
  RowKey stack_keys[kStackRows];
  std::vector<RowKey> heap_keys;
  if (rows > size) {
    return false;
  }
  RowKey* keys = stack_keys;
  if (rows > kStackRows) {
    heap_keys.resize(rows);
    keys = heap_keys.data();
  }
  if (!ScanStateRows(rows, data, size, keys)) {
    return false;
  }
  // Every row checked out: merge them. Into an empty aggregator each row is
  // a new group, so its arrays are sized once (the payload bounds the key
  // bytes); a total grows only by the groups that are new, as MergeGroups
  // grows it.
  const Columns& c = *cols_;
  if (empty()) {
    Reserve(rows);
    if (key_width() != 0) {
      key_bytes_.reserve(size);
    }
  }
  // The merge waits on the total's cache misses, so it does little else: a
  // COUNT is read without building a Value.
  uint64_t probes = 0;
  size_t pos = 0;
  Value v;
  Value n;
  for (size_t r = 0; r < rows; ++r) {
    PrefetchAhead(r, rows, [keys](size_t j) { return keys[j].hash; });
    const RowKey row = keys[r];
    const uint32_t group = GroupForKey(data + pos, row.key_end - pos, row.hash, &probes).first;
    pos = row.key_end;
    uint64_t* words = words_.data() + size_t{group} * c.word_width;
    Value* values = values_.data() + size_t{group} * c.value_width;
    for (size_t i = 0; i < c.specs.size(); ++i) {
      const AggFn fn = c.specs[i].fn;
      if (fn == AggFn::kCount) {
        int64_t count = 0;  // An int or null, as checked.
        if (static_cast<ValueType>(data[pos++]) == ValueType::kInt &&
            GetVarintSigned64(data, size, &pos, &count)) {
          AddCount(i, words, static_cast<uint64_t>(count));
        }
        continue;
      }
      GetValue(data, size, &pos, &v);
      if (fn == AggFn::kAverage) {
        GetValue(data, size, &pos, &n);
      }
      Combine(i, words, values, v, fn == AggFn::kAverage ? CountOf(n) : 0);
    }
  }
  GroupProbeCounter().Increment(probes);
  return true;
}

void Aggregator::Clear() {
  key_bytes_.clear();
  key_ends_.clear();
  words_.clear();
  values_.clear();
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
    agg_.Absorb(Aggregator(other.agg_));
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
  const uint64_t rows = frame.rows;
  if (aggregated_) {
    if (!agg_.DecodeStateRows(rows, frame.payload, frame.length)) {
      return false;
    }
  } else {
    // Append's rule: a keep-first set takes what fits, a keep-last set the
    // last cap_ rows; the rest are only validated. A row with values takes a
    // byte or more, so the payload bounds what is reserved before decoding.
    // Rows decode onto the end, and come off again if a later one is bad.
    const size_t before = rows_.size();
    const uint64_t take =
        std::min<uint64_t>(rows, keep_last_ ? cap_ : cap_ - std::min(cap_, before));
    ReserveGeometric(&rows_, before + std::min<uint64_t>(take, frame.length));
    if (!GetDenseRows(columns, rows, keep_last_ ? rows - take : 0, take, frame.payload,
                      frame.length, [this](uint64_t) -> Tuple& { return rows_.emplace_back(); })) {
      rows_.resize(before);
      return false;
    }
    Trim(rows - take);
  }
  dropped_ += frame.dropped;
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
  return Decode(frame.rows == 0 ? std::vector<SymbolId>{} : InternSymbols(names), frame);
}

bool ResultSet::Accepts(const std::vector<std::string>& names, const SetFrame& frame) const {
  if (aggregated_) {
    return names == agg_.cols_->state_names &&
           agg_.ScanStateRows(frame.rows, frame.payload, frame.length, nullptr);
  }
  // A frame without rows decodes in no columns, and fits them only when
  // empty, as it fits any.
  return frame.Fits(names.size());
}

bool ResultSet::DecodeSlices(const std::vector<uint8_t>& slices) {
  std::vector<std::string> names;
  size_t pos = 0;
  while (pos < slices.size()) {
    SetFrame frame;
    if (!GetStringList(slices.data(), slices.size(), &pos, &names) ||
        !SetFrame::Get(slices.data(), slices.size(), &pos, &frame) || !DecodeNamed(names, frame)) {
      return false;
    }
  }
  return true;
}

}  // namespace pivot
