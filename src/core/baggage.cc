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
  active_.encoded = false;  // The only mutation of the active instance.
  active_.bags.try_emplace(key, spec).first->second.set.AddInput(t);
}

const std::vector<Tuple>& Baggage::Unpack(BagKey key, std::vector<Tuple>* buffer) const {
  // Gather the bag from every instance, oldest first, then combine under the
  // bag's semantics ("tuples are unpacked from each instance then combined
  // according to query logic", §5). One holder is read in place.
  const ResultSet* only = nullptr;
  std::optional<ResultSet> combined;
  ForEachInstance([&](const Instance& inst) {
    auto it = inst.bags.find(key);
    if (it == inst.bags.end()) {
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
  });
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
  auto [id1, id2] = active_.id.Split();

  // Each side retains the current contents as an inactive instance and gets a
  // fresh empty active instance with its half of the ID. The snapshot is
  // frozen once and shared — neither side deep-copies retained tuples, and
  // the existing inactive list is shared by pointer. A stale memo is
  // re-encoded in the frozen copy, never in this baggage.
  auto frozen = std::make_shared<Instance>(active_);
  frozen->Encode();

  Baggage side1;
  side1.inactive_ = inactive_;
  side1.inactive_.push_back(frozen);
  side1.active_.id = id1;
  side1.active_.gen = active_.gen + 1;

  Baggage side2;
  side2.inactive_ = inactive_;
  side2.inactive_.push_back(std::move(frozen));
  side2.active_.id = id2;
  side2.active_.gen = active_.gen + 1;

  return {std::move(side1), std::move(side2)};
}

Baggage Baggage::Join(const Baggage& a, const Baggage& b) {
  JoinCounter().Increment();
  Baggage out;
  out.active_.id = ItcId::Join(a.active_.id, b.active_.id);
  out.active_.gen = std::max(a.active_.gen, b.active_.gen) + 1;

  // Merge the two active instances' contents bag-wise.
  out.active_.bags = a.active_.bags;
  for (const auto& [key, bag] : b.active_.bags) {
    auto it = out.active_.bags.find(key);
    if (it == out.active_.bags.end()) {
      out.active_.bags.emplace(key, bag);
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
  ForEachInstance([&](const Instance& inst) {
    for (const auto& [key, bag] : inst.bags) {
      n += bag.set.dropped();
    }
  });
  return n;
}

size_t Baggage::TupleCount() const {
  size_t n = 0;
  ForEachInstance([&](const Instance& inst) {
    for (const auto& [key, bag] : inst.bags) {
      n += bag.set.size();
    }
  });
  return n;
}

bool Baggage::IsTrivial() const {
  if (!inactive_.empty() || active_.gen != 0 || !active_.id.IsOne()) {
    return false;
  }
  for (const auto& [key, bag] : active_.bags) {
    if (!bag.set.empty()) {
      return false;
    }
  }
  return true;
}

void Baggage::Clear() {
  active_.id = ItcId::Seed();
  active_.gen = 0;
  active_.bags.clear();
  active_.bytes.clear();
  active_.encoded = false;
  inactive_.clear();
}

// ---------------------------------------------------------------------------
// Serialization
//
// Layout (all varints unless noted):
//   [instance count]
//   per instance (active instance first, then the retained ones, oldest
//   first):
//     [gen] [itc id (canonical bytes)] [bag count]
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

}  // namespace

const std::vector<uint8_t>& Baggage::Instance::Encode() const {
  if (!encoded) {
    bytes.clear();
    PutVarint64(&bytes, gen);
    id.Encode(&bytes);
    PutBags(&bytes, bags, nullptr);
    encoded = true;
  }
  return bytes;
}

bool Baggage::Instance::Decode(const uint8_t* data, size_t size, size_t* pos) {
  const size_t start = *pos;
  if (!GetVarint64(data, size, pos, &gen) || !ItcId::Decode(data, size, pos, &id) ||
      !GetBags(data, size, pos, &bags)) {
    return false;
  }
  // Our encoder is canonical (ordered maps, minimal varints), so for bytes we
  // produced the wire slice equals what a re-encode would emit.
  bytes.assign(data + start, data + *pos);
  encoded = true;
  return true;
}

std::vector<uint8_t> Baggage::Serialize(SerializeStats* stats) const {
  if (stats != nullptr) {
    *stats = SerializeStats{};
    stats->instances = instance_count();
  }
  if (IsTrivial()) {
    SerializeBytesHistogram().Observe(0);
    return {};
  }

  // The active instance re-encodes only if Pack made its memo stale; the
  // retained ones were encoded when they froze or were decoded.
  (active_.encoded ? SerializeCacheHitCounter() : SerializeCacheMissCounter()).Increment();
  const std::vector<uint8_t>& active = active_.Encode();
  size_t total = active.size();
  for (const auto& inst : inactive_) {
    SerializeCacheHitCounter().Increment();
    total += inst->bytes.size();
  }

  std::vector<uint8_t> out;
  out.reserve(10 + total);
  PutVarint64(&out, instance_count());
  out.insert(out.end(), active.begin(), active.end());
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
    ForEachInstance([&](const Instance& inst) {
      scratch.clear();
      PutBags(&scratch, inst.bags, &stats->queries);
    });
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
  // The active instance comes first on the wire, then the retained ones,
  // oldest first.
  bool ok = out.active_.Decode(data, size, &pos);
  for (uint64_t i = 1; ok && i < ninst; ++i) {
    auto inst = std::make_shared<Instance>();
    ok = inst->Decode(data, size, &pos);
    out.inactive_.push_back(std::move(inst));
  }
  if (!ok || pos != size) {
    DeserializeErrorCounter().Increment();
    return DataLossError(ok ? "baggage: trailing bytes" : "baggage: bad instance");
  }
  return out;
}

}  // namespace pivot
