#include "src/core/baggage.h"

#include <algorithm>

#include "src/core/wire.h"
#include "src/telemetry/metrics.h"

namespace pivot {

namespace {

// Process-wide baggage telemetry (docs/OBSERVABILITY.md). Function-local
// statics keep the hot paths at one relaxed RMW per event with no lookups.
telemetry::Counter& PackCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("baggage.pack.count");
  return c;
}
telemetry::Counter& SplitCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("baggage.split.count");
  return c;
}
telemetry::Counter& JoinCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("baggage.join.count");
  return c;
}
telemetry::Counter& SerializeCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("baggage.serialize.count");
  return c;
}
telemetry::Counter& DeserializeCounter() {
  static telemetry::Counter& c = telemetry::Metrics().GetCounter("baggage.deserialize.count");
  return c;
}
telemetry::Counter& DeserializeErrorCounter() {
  static telemetry::Counter& c =
      telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  return c;
}
telemetry::Counter& SerializeCacheHitCounter() {
  static telemetry::Counter& c =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_hit");
  return c;
}
telemetry::Counter& SerializeCacheMissCounter() {
  static telemetry::Counter& c =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_miss");
  return c;
}
telemetry::Histogram& SerializeBytesHistogram() {
  static telemetry::Histogram& h =
      telemetry::Metrics().GetHistogram("baggage.serialize.bytes");
  return h;
}
telemetry::Histogram& SerializeTuplesHistogram() {
  static telemetry::Histogram& h =
      telemetry::Metrics().GetHistogram("baggage.serialize.tuples");
  return h;
}

}  // namespace

bool BagSpec::operator==(const BagSpec& other) const {
  return semantics == other.semantics && limit == other.limit &&
         group_fields == other.group_fields && aggs == other.aggs;
}

// ---------------------------------------------------------------------------
// TupleBag

TupleBag::TupleBag(BagSpec spec) : spec_(std::move(spec)) {
  if (spec_.semantics == PackSemantics::kAggregate) {
    agg_.emplace(spec_.group_fields, spec_.aggs);
  }
}

void TupleBag::Add(const Tuple& t) {
  if (agg_) {
    agg_->AddInput(t);
  } else {
    Append(&t, 1);
  }
}

void TupleBag::MergeFrom(const TupleBag& other) {
  // Instances decoded from the wire may carry one key under different specs
  // (a malformed peer, or a query id reused after a frontend restart). Every
  // pair stays memory-safe: aggregate state of another configuration merges
  // by column name (Aggregator::Absorb), and a retention bag merges nothing
  // into an aggregate one or the reverse.
  dropped_ += other.dropped_;
  if (agg_) {
    if (other.agg_) {
      agg_->Absorb(*other.agg_);
    }
  } else {
    Append(other.tuples_.data(), other.tuples_.size());
  }
}

size_t TupleBag::Cap() const {
  return spec_.semantics == PackSemantics::kAll ? kMaxBagTuples
                                                : std::min<size_t>(spec_.limit, kMaxBagTuples);
}

void TupleBag::Append(const Tuple* in, size_t n) {
  const size_t cap = Cap();
  const bool keep_last = spec_.semantics == PackSemantics::kRecentN;
  const size_t take = std::min(n, keep_last ? cap : cap - std::min(cap, tuples_.size()));
  const Tuple* from = keep_last ? in + (n - take) : in;
  tuples_.insert(tuples_.end(), from, from + take);
  Trim(n - take);
}

void TupleBag::Trim(size_t uncopied) {
  const size_t excess = tuples_.size() > Cap() ? tuples_.size() - Cap() : 0;
  if (spec_.semantics == PackSemantics::kRecentN) {
    tuples_.erase(tuples_.begin(), tuples_.begin() + static_cast<ptrdiff_t>(excess));
  } else {
    tuples_.resize(tuples_.size() - excess);
  }
  // FirstN/RecentN leave tuples out by design; only the valve counts.
  if (spec_.semantics == PackSemantics::kAll || spec_.limit > kMaxBagTuples) {
    dropped_ += uncopied + excess;
  }
}

void TupleBag::Encode(std::vector<uint8_t>* out) const {
  if (agg_) {
    agg_->EncodeState(out);
  } else {
    PutRows(out, tuples_);
  }
  PutVarint64(out, dropped_);
}

bool TupleBag::Decode(const uint8_t* data, size_t size, size_t* pos) {
  if (!(agg_ ? agg_->DecodeState(data, size, pos) : GetRows(data, size, pos, &tuples_)) ||
      !GetVarint64(data, size, pos, &dropped_)) {
    return false;
  }
  Trim(0);  // A peer's bag may hold more than this spec keeps.
  return true;
}

std::vector<Tuple> TupleBag::Contents() const { return agg_ ? agg_->StateTuples() : tuples_; }

size_t TupleBag::size() const { return agg_ ? agg_->group_count() : tuples_.size(); }

// ---------------------------------------------------------------------------
// Baggage

void Baggage::Pack(BagKey key, const BagSpec& spec, const Tuple& t) {
  PackCounter().Increment();
  active_bytes_valid_ = false;  // The only mutation of the active instance.
  auto it = active_bags_.find(key);
  if (it == active_bags_.end()) {
    it = active_bags_.emplace(key, TupleBag(spec)).first;
  }
  it->second.Add(t);
}

std::vector<Tuple> Baggage::Unpack(BagKey key) const {
  // Gather the bag from every instance, oldest first, then combine under the
  // bag's semantics ("tuples are unpacked from each instance then combined
  // according to query logic", §5).
  const TupleBag* first = nullptr;
  std::vector<const TupleBag*> rest;
  for (const auto& inst : inactive_) {
    auto it = inst->bags.find(key);
    if (it != inst->bags.end()) {
      if (first == nullptr) {
        first = &it->second;
      } else {
        rest.push_back(&it->second);
      }
    }
  }
  auto it = active_bags_.find(key);
  if (it != active_bags_.end()) {
    if (first == nullptr) {
      first = &it->second;
    } else {
      rest.push_back(&it->second);
    }
  }
  if (first == nullptr) {
    return {};
  }
  if (rest.empty()) {
    return first->Contents();
  }
  TupleBag combined = *first;
  for (const TupleBag* b : rest) {
    combined.MergeFrom(*b);
  }
  return combined.Contents();
}

std::pair<Baggage, Baggage> Baggage::Split() const {
  SplitCounter().Increment();
  auto [id1, id2] = active_id_.Split();

  // Each side retains the current contents as an inactive instance and gets a
  // fresh empty active instance with its half of the ID. The snapshot is
  // frozen once and shared — neither side deep-copies retained tuples, and
  // the existing inactive list is shared by pointer.
  InstancePtr frozen = FreezeActive();

  Baggage side1;
  side1.inactive_ = inactive_;
  side1.inactive_.push_back(frozen);
  side1.active_id_ = id1;
  side1.active_gen_ = active_gen_ + 1;

  Baggage side2;
  side2.inactive_ = inactive_;
  side2.inactive_.push_back(std::move(frozen));
  side2.active_id_ = id2;
  side2.active_gen_ = active_gen_ + 1;

  return {std::move(side1), std::move(side2)};
}

Baggage Baggage::Join(const Baggage& a, const Baggage& b) {
  JoinCounter().Increment();
  Baggage out;
  out.active_id_ = ItcId::Join(a.active_id_, b.active_id_);
  out.active_gen_ = std::max(a.active_gen_, b.active_gen_) + 1;

  // Merge the two active instances' contents bag-wise.
  out.active_bags_ = a.active_bags_;
  for (const auto& [key, bag] : b.active_bags_) {
    auto it = out.active_bags_.find(key);
    if (it == out.active_bags_.end()) {
      out.active_bags_.emplace(key, bag);
    } else {
      it->second.MergeFrom(bag);
    }
  }

  // Union of inactive instances, deduplicated by identity ("the inactive
  // instances from each branch are copied, and duplicates are discarded",
  // §5). Identity is (id, gen) — see the Instance comment. Instances shared
  // by both branches (the common case after a split) dedupe on pointer
  // equality before the id comparison.
  out.inactive_ = a.inactive_;
  for (const auto& inst : b.inactive_) {
    bool duplicate = false;
    for (const auto& existing : out.inactive_) {
      if (existing == inst || (existing->gen == inst->gen && existing->id == inst->id)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      out.inactive_.push_back(inst);
    }
  }
  return out;
}

uint64_t Baggage::DroppedTupleCount() const {
  uint64_t n = 0;
  for (const auto& [key, bag] : active_bags_) {
    n += bag.dropped();
  }
  for (const auto& inst : inactive_) {
    for (const auto& [key, bag] : inst->bags) {
      n += bag.dropped();
    }
  }
  return n;
}

size_t Baggage::TupleCount() const {
  size_t n = 0;
  for (const auto& [key, bag] : active_bags_) {
    n += bag.size();
  }
  for (const auto& inst : inactive_) {
    for (const auto& [key, bag] : inst->bags) {
      n += bag.size();
    }
  }
  return n;
}

bool Baggage::IsTrivial() const {
  if (!inactive_.empty() || active_gen_ != 0 || active_id_ != ItcId::Seed()) {
    return false;
  }
  for (const auto& [key, bag] : active_bags_) {
    if (!bag.empty()) {
      return false;
    }
  }
  return true;
}

void Baggage::Clear() {
  active_id_ = ItcId::Seed();
  active_gen_ = 0;
  active_bags_.clear();
  inactive_.clear();
  active_bytes_.clear();
  active_bytes_valid_ = false;
}

// ---------------------------------------------------------------------------
// Serialization
//
// Layout (all varints unless noted):
//   [instance count]
//   per instance (active instance first):
//     [itc id (canonical bytes)] [bag count]
//     per bag: [key] [spec] [result-set] [dropped]
//   spec: [semantics u8] [limit] [#groups][names...] [#aggs][fn u8, from_state
//         u8, input, output]...
// A pristine baggage serializes to zero bytes.

void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec) {
  out->push_back(static_cast<uint8_t>(spec.semantics));
  PutVarint64(out, spec.limit);
  PutStringList(out, spec.group_fields);
  PutAggSpecs(out, spec.aggs);
}

bool GetBagSpec(const uint8_t* data, size_t size, size_t* pos, BagSpec* spec) {
  if (*pos >= size) {
    return false;
  }
  uint8_t sem = data[(*pos)++];
  if (sem > static_cast<uint8_t>(PackSemantics::kAggregate)) {
    return false;
  }
  spec->semantics = static_cast<PackSemantics>(sem);
  uint64_t limit = 0;
  const bool limited = spec->semantics == PackSemantics::kFirstN ||
                       spec->semantics == PackSemantics::kRecentN;
  if (!GetVarint64(data, size, pos, &limit) || limit > UINT32_MAX ||
      (limited && (limit == 0 || limit > kMaxBagTuples))) {
    return false;
  }
  spec->limit = static_cast<uint32_t>(limit);
  return GetStringList(data, size, pos, &spec->group_fields) &&
         GetAggSpecs(data, size, pos, &spec->aggs);
}

namespace {

void PutBags(std::vector<uint8_t>* out, const std::map<BagKey, TupleBag>& bags,
             std::map<uint64_t, Baggage::SerializeStats::QueryShare>* shares) {
  PutVarint64(out, bags.size());
  for (const auto& [key, bag] : bags) {
    size_t bag_start = out->size();
    PutVarint64(out, key);
    PutBagSpec(out, bag.spec());
    bag.Encode(out);
    if (shares != nullptr) {
      auto& share = (*shares)[BagKeyQuery(key)];
      share.bytes += out->size() - bag_start;
      share.tuples += bag.size();
    }
  }
}

bool GetBags(const uint8_t* data, size_t size, size_t* pos, std::map<BagKey, TupleBag>* bags) {
  uint64_t nbags = 0;
  if (!GetVarint64(data, size, pos, &nbags) || nbags > size) {
    return false;
  }
  for (uint64_t i = 0; i < nbags; ++i) {
    uint64_t key = 0;
    BagSpec spec;
    if (!GetVarint64(data, size, pos, &key) || !GetBagSpec(data, size, pos, &spec)) {
      return false;
    }
    TupleBag bag(std::move(spec));
    if (!bag.Decode(data, size, pos)) {
      return false;
    }
    bags->emplace(key, std::move(bag));
  }
  return true;
}

// Encodes one instance's `[gen][id][bags...]` segment into `out`.
void EncodeInstance(uint64_t gen, const ItcId& id, const std::map<BagKey, TupleBag>& bags,
                    std::vector<uint8_t>* out) {
  out->clear();
  PutVarint64(out, gen);
  id.Encode(out);
  PutBags(out, bags, nullptr);
}

}  // namespace

Baggage::InstancePtr Baggage::FreezeActive() const {
  auto frozen = std::make_shared<Instance>();
  frozen->id = active_id_;
  frozen->gen = active_gen_;
  frozen->bags = active_bags_;
  if (active_bytes_valid_) {
    frozen->bytes = active_bytes_;
  } else {
    EncodeInstance(active_gen_, active_id_, active_bags_, &frozen->bytes);
  }
  return frozen;
}

std::vector<uint8_t> Baggage::Serialize(SerializeStats* stats) const {
  SerializeCounter().Increment();
  if (stats != nullptr) {
    *stats = SerializeStats{};
    stats->instances = instance_count();
  }
  if (IsTrivial()) {
    SerializeBytesHistogram().Observe(0);
    return {};
  }

  // Active instance: re-encode only if dirty (Pack since the last encode).
  // Inactive instances were encoded when they froze or were decoded.
  if (active_bytes_valid_) {
    SerializeCacheHitCounter().Increment();
  } else {
    EncodeInstance(active_gen_, active_id_, active_bags_, &active_bytes_);
    active_bytes_valid_ = true;
    SerializeCacheMissCounter().Increment();
  }
  size_t total = active_bytes_.size();
  for (const auto& inst : inactive_) {
    SerializeCacheHitCounter().Increment();
    total += inst->bytes.size();
  }

  std::vector<uint8_t> out;
  out.reserve(10 + total);
  PutVarint64(&out, 1 + inactive_.size());
  out.insert(out.end(), active_bytes_.begin(), active_bytes_.end());
  for (const auto& inst : inactive_) {
    out.insert(out.end(), inst->bytes.begin(), inst->bytes.end());
  }
  const size_t tuples = TupleCount();
  SerializeBytesHistogram().Observe(out.size());
  SerializeTuplesHistogram().Observe(tuples);
  if (stats != nullptr) {
    // Per-query attribution, computed on demand: re-encode each instance's
    // bags into a scratch buffer, which yields the same bytes as `out` holds.
    std::vector<uint8_t> scratch;
    PutBags(&scratch, active_bags_, &stats->queries);
    for (const auto& inst : inactive_) {
      scratch.clear();
      PutBags(&scratch, inst->bags, &stats->queries);
    }
    stats->bytes = out.size();
    stats->tuples = tuples;
  }
  return out;
}

Result<Baggage> Baggage::Deserialize(const uint8_t* data, size_t size) {
  DeserializeCounter().Increment();
  Baggage out;
  if (size == 0) {
    return out;  // Pristine baggage.
  }
  size_t pos = 0;
  uint64_t ninst = 0;
  if (!GetVarint64(data, size, &pos, &ninst) || ninst == 0 || ninst > size) {
    DeserializeErrorCounter().Increment();
    return DataLossError("baggage: bad instance count");
  }
  // Each instance's bytes are seeded with the wire slice it was decoded from,
  // so re-serializing an unmodified baggage — the response leg of an RPC hop —
  // copies cached bytes instead of re-encoding every bag. Our encoder is
  // canonical (ordered maps, minimal varints), so for bytes we produced the
  // slice equals what a re-encode would emit.
  size_t active_start = pos;
  if (!GetVarint64(data, size, &pos, &out.active_gen_) ||
      !ItcId::Decode(data, size, &pos, &out.active_id_) ||
      !GetBags(data, size, &pos, &out.active_bags_)) {
    DeserializeErrorCounter().Increment();
    return DataLossError("baggage: bad active instance");
  }
  out.active_bytes_.assign(data + active_start, data + pos);
  out.active_bytes_valid_ = true;
  for (uint64_t i = 1; i < ninst; ++i) {
    auto inst = std::make_shared<Instance>();
    size_t inst_start = pos;
    if (!GetVarint64(data, size, &pos, &inst->gen) ||
        !ItcId::Decode(data, size, &pos, &inst->id) ||
        !GetBags(data, size, &pos, &inst->bags)) {
      DeserializeErrorCounter().Increment();
      return DataLossError("baggage: bad inactive instance");
    }
    inst->bytes.assign(data + inst_start, data + pos);
    out.inactive_.push_back(std::move(inst));
  }
  if (pos != size) {
    DeserializeErrorCounter().Increment();
    return DataLossError("baggage: trailing bytes");
  }
  return out;
}

}  // namespace pivot
