#include "src/core/baggage.h"

#include <algorithm>
#include <optional>

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

// ---------------------------------------------------------------------------
// Baggage

void Baggage::Pack(BagKey key, const BagSpec& spec, const Tuple& t) {
  PackCounter().Increment();
  active_bytes_valid_ = false;  // The only mutation of the active instance.
  active_bags_.try_emplace(key, spec).first->second.set.AddInput(t);
}

const std::vector<Tuple>& Baggage::Unpack(BagKey key, std::vector<Tuple>* buffer) const {
  // Gather the bag from every instance, oldest first, then combine under the
  // bag's semantics ("tuples are unpacked from each instance then combined
  // according to query logic", §5). One holder is read in place.
  const ResultSet* only = nullptr;
  std::optional<ResultSet> combined;
  auto gather = [&](const std::map<BagKey, Bag>& bags) {
    auto it = bags.find(key);
    if (it == bags.end()) {
      return;
    }
    if (only == nullptr) {
      only = &it->second.set;
      return;
    }
    if (!combined) {
      combined.emplace(*only);
    }
    combined->Absorb(it->second.set);
  };
  for (const auto& inst : inactive_) {
    gather(inst->bags);
  }
  gather(active_bags_);
  if (combined) {
    *buffer = combined->StateRows();
  } else if (only == nullptr) {
    buffer->clear();
  } else if (const std::vector<Tuple>* rows = only->rows()) {
    return *rows;
  } else {
    *buffer = only->StateRows();
  }
  return *buffer;
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
      it->second.set.Absorb(bag.set);
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
    n += bag.set.dropped();
  }
  for (const auto& inst : inactive_) {
    for (const auto& [key, bag] : inst->bags) {
      n += bag.set.dropped();
    }
  }
  return n;
}

size_t Baggage::TupleCount() const {
  size_t n = 0;
  for (const auto& [key, bag] : active_bags_) {
    n += bag.set.size();
  }
  for (const auto& inst : inactive_) {
    for (const auto& [key, bag] : inst->bags) {
      n += bag.set.size();
    }
  }
  return n;
}

bool Baggage::IsTrivial() const {
  if (!inactive_.empty() || active_gen_ != 0 || !active_id_.IsOne()) {
    return false;
  }
  for (const auto& [key, bag] : active_bags_) {
    if (!bag.set.empty()) {
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
//   spec: [semantics u8] [limit] [plan (PutPlan)]
// A pristine baggage serializes to zero bytes.

void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec) {
  out->push_back(static_cast<uint8_t>(spec.semantics));
  PutVarint64(out, spec.limit);
  PutPlan(out, spec.plan);
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
  return GetPlan(data, size, pos, &spec->plan) &&
         spec->plan.aggregated() == (spec->semantics == PackSemantics::kAggregate);
}

namespace {

void PutBags(std::vector<uint8_t>* out, const std::map<BagKey, Baggage::Bag>& bags,
             std::map<uint64_t, Baggage::SerializeStats::QueryShare>* shares) {
  PutVarint64(out, bags.size());
  for (const auto& [key, bag] : bags) {
    size_t bag_start = out->size();
    PutVarint64(out, key);
    PutBagSpec(out, bag.spec);
    bag.set.Encode(out);
    PutVarint64(out, bag.set.dropped());
    if (shares != nullptr) {
      auto& share = (*shares)[BagKeyQuery(key)];
      share.bytes += out->size() - bag_start;
      share.tuples += bag.set.size();
    }
  }
}

bool GetBags(const uint8_t* data, size_t size, size_t* pos,
             std::map<BagKey, Baggage::Bag>* bags) {
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
    // Decoded in place. A repeated key is malformed: the encoder writes each
    // key once, in order.
    auto [it, inserted] = bags->try_emplace(key, std::move(spec));
    uint64_t dropped = 0;
    if (!inserted || !it->second.set.Decode(data, size, pos) ||
        !GetVarint64(data, size, pos, &dropped)) {
      return false;
    }
    it->second.set.AddDropped(dropped);
  }
  return true;
}

// Encodes one instance's `[gen][id][bags...]` segment into `out`.
void EncodeInstance(uint64_t gen, const ItcId& id, const std::map<BagKey, Baggage::Bag>& bags,
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
