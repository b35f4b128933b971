#include "src/core/baggage.h"

#include <algorithm>
#include <optional>

#include "src/common/varint.h"
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

}  // namespace

// ---------------------------------------------------------------------------
// Baggage

size_t Baggage::Bag::TupleCount() const {
  if (decoded) {
    return set.size();
  }
  return valve ? std::min<uint64_t>(rows, kMaxBagTuples) : rows;
}

uint64_t Baggage::Bag::DroppedCount() const {
  if (decoded) {
    return set.dropped();
  }
  return dropped + (valve && rows > kMaxBagTuples ? rows - kMaxBagTuples : 0);
}

ResultSet Baggage::Decoded(const Bag& bag, const ResultSet& like,
                           const std::vector<SymbolId>& columns) {
  ResultSet set = like.EmptyLike();
  if (!set.Decode(columns, bag.frame())) {
    DeserializeErrorCounter().Increment();
    set = like.EmptyLike();  // A bad bag reads as empty.
    set.AddDropped(bag.dropped);
  }
  return set;
}

void Baggage::Pack(BagKey key, const BagSchema& schema, const Tuple& t) {
  PackCounter().Increment();
  active_.encoded = false;  // The only mutation of the active instance.
  auto [it, inserted] = active_.bags.try_emplace(key);
  Bag& bag = it->second;
  if (!bag.decoded) {
    if (inserted) {
      // Every bag of a key has one program, so a new bag follows a decoded
      // bag of the key in an older instance.
      const ResultSet* like = &schema.empty;
      for (const InstancePtr& inst : inactive_) {
        auto older = inst->bags.find(key);
        if (older != inst->bags.end() && older->second.decoded) {
          like = &older->second.set;
          break;
        }
      }
      bag.set = like->EmptyLike();
    } else {
      bag.set = Decoded(bag, schema.empty, schema.columns);  // It arrived encoded.
      bag.payload.clear();
    }
    bag.decoded = true;
  }
  bag.set.AddInput(t);
}

void Baggage::Pack(BagKey key, const BagSpec& spec, const Tuple& t) {
  auto it = active_.bags.find(key);
  if (it != active_.bags.end() && it->second.decoded) {
    PackCounter().Increment();
    active_.encoded = false;
    it->second.set.AddInput(t);
    return;
  }
  std::vector<SymbolId> columns;
  columns.reserve(t.size());
  for (const Tuple::Field& f : t.fields()) {
    columns.push_back(f.id);
  }
  Pack(key, BagSchema(spec, std::move(columns)), t);
}

const std::vector<Tuple>& Baggage::Unpack(BagKey key, const BagSchema* schema,
                                          std::vector<Tuple>* buffer) const {
  // Gather the bag from every instance, oldest first, then combine under the
  // bag's semantics ("tuples are unpacked from each instance then combined
  // according to query logic", §5). A lone holder is read in place or
  // decoded straight into `*buffer`.
  const Bag* only = nullptr;
  const Bag* decoded = nullptr;
  size_t holders = 0;
  ForEachInstance([&](const Instance& inst) {
    auto it = inst.bags.find(key);
    if (it == inst.bags.end()) {
      return;
    }
    if (holders++ == 0) {
      only = &it->second;
    }
    if (decoded == nullptr && it->second.decoded) {
      decoded = &it->second;
    }
  });
  if (holders == 1 && only->decoded) {
    if (const std::vector<Tuple>* rows = only->set.rows()) {
      return *rows;
    }
    *buffer = only->set.StateRows();
    return *buffer;
  }
  // Encoded holders read under the step's schema, else as a decoded holder
  // reads.
  const ResultSet* like = schema != nullptr ? &schema->empty : nullptr;
  const std::vector<SymbolId>* columns = schema != nullptr ? &schema->columns : nullptr;
  std::vector<SymbolId> decoded_columns;
  if (like == nullptr && decoded != nullptr) {
    like = &decoded->set;
    decoded_columns = decoded->set.Columns();
    columns = &decoded_columns;
  }
  if (holders == 0 || like == nullptr) {
    buffer->clear();
    return *buffer;
  }
  if (holders == 1) {
    if (like->aggregated()) {
      *buffer = Decoded(*only, *like, *columns).StateRows();
    } else if (!like->DecodeRowsInto(*columns, only->frame(), buffer)) {
      DeserializeErrorCounter().Increment();  // Read as empty.
    }
    return *buffer;
  }
  std::optional<ResultSet> combined;
  ForEachInstance([&](const Instance& inst) {
    auto it = inst.bags.find(key);
    if (it == inst.bags.end()) {
      return;
    }
    const Bag& bag = it->second;
    if (!combined) {
      combined.emplace(bag.decoded ? bag.set : Decoded(bag, *like, *columns));
    } else if (bag.decoded) {
      combined->Absorb(bag.set);
    } else {
      combined->Absorb(Decoded(bag, *like, *columns));
    }
  });
  *buffer = combined->StateRows();
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

  // Merge the two active instances' contents bag-wise, `a`'s side first. Two
  // encoded bags concatenate: decoding the joined values appends `b`'s rows
  // after `a`'s under the retention rule, or merges `b`'s groups after
  // `a`'s, which is what Absorb does with the decoded sets; drops add up,
  // and rows past the valve count when read. Otherwise the encoded side is
  // read as the decoded side's set reads.
  out.active_.bags = a.active_.bags;
  for (const auto& [key, bag] : b.active_.bags) {
    auto [it, inserted] = out.active_.bags.try_emplace(key, bag);
    if (inserted) {
      continue;
    }
    Bag& mine = it->second;
    if (!mine.decoded && !bag.decoded) {
      mine.rows += bag.rows;
      mine.dropped += bag.dropped;
      mine.valve = mine.valve || bag.valve;
      mine.payload += bag.payload;
    } else if (!mine.decoded) {
      mine.set = Decoded(mine, bag.set, bag.set.Columns());
      mine.set.Absorb(bag.set);
      mine.decoded = true;
      mine.payload.clear();
    } else if (!bag.decoded) {
      mine.set.Absorb(Decoded(bag, mine.set, mine.set.Columns()));
    } else {
      mine.set.Absorb(bag.set);
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
      n += bag.DroppedCount();
    }
  });
  return n;
}

size_t Baggage::TupleCount() const {
  size_t n = 0;
  ForEachInstance([&](const Instance& inst) {
    for (const auto& [key, bag] : inst.bags) {
      n += bag.TupleCount();
    }
  });
  return n;
}

bool Baggage::IsTrivial() const {
  if (!inactive_.empty() || active_.gen != 0 || !active_.id.IsOne()) {
    return false;
  }
  for (const auto& [key, bag] : active_.bags) {
    if (bag.TupleCount() != 0) {
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
//     per bag, keys ascending: [key] [set]
//   set: the tuple set's SetFrame (core/aggregation.h), whose payload holds
//   dense rows of values in the columns' order (the packing step's
//   projection, or the aggregate's state columns).
// A pristine baggage serializes to zero bytes.

void Baggage::PutBags(std::vector<uint8_t>* out, const Bags& bags,
                      std::map<uint64_t, SerializeStats::QueryShare>* shares) {
  PutVarint64(out, bags.size());
  for (const auto& [key, bag] : bags) {
    const size_t bag_start = out->size();
    PutVarint64(out, key);
    if (bag.decoded) {
      bag.set.Encode(out);
    } else {
      bag.frame().Put(out);  // Untouched since it arrived: byte for byte.
    }
    if (shares != nullptr) {
      auto& share = (*shares)[BagKeyQuery(key)];
      share.bytes += out->size() - bag_start;
      share.tuples += bag.TupleCount();
    }
  }
}

const std::vector<uint8_t>& Baggage::Instance::Encode() const {
  if (!encoded) {
    // One allocation covers a typical instance; byte-at-a-time growth from
    // empty would reallocate at 1, 2, 4, 8 and 16 bytes.
    bytes.clear();
    bytes.reserve(64);
    PutVarint64(&bytes, gen);
    id.Encode(&bytes);
    PutBags(&bytes, bags, nullptr);
    encoded = true;
  }
  return bytes;
}

bool Baggage::Instance::Decode(const uint8_t* data, size_t size, size_t* pos) {
  const size_t start = *pos;
  uint64_t nbags = 0;
  if (!GetVarint64(data, size, pos, &gen) || !ItcId::Decode(data, size, pos, &id) ||
      !GetVarint64(data, size, pos, &nbags) || nbags > size) {
    return false;
  }
  // Only the framing is parsed: each bag keeps its values encoded until a
  // step holding its schema reads it. Keys ascend, as the encoder writes
  // them; a repeated or out-of-order key is malformed.
  for (uint64_t i = 0; i < nbags; ++i) {
    uint64_t key = 0;
    SetFrame frame;
    if (!GetVarint64(data, size, pos, &key) || !SetFrame::Get(data, size, pos, &frame) ||
        (!bags.empty() && key <= bags.rbegin()->first)) {
      return false;
    }
    Bag& bag = bags.try_emplace(bags.end(), key)->second;
    bag.rows = frame.rows;
    bag.valve = frame.valve;
    bag.dropped = frame.dropped;
    bag.payload.assign(reinterpret_cast<const char*>(frame.payload), frame.length);
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
  if (!active_.encoded) {
    SerializeCacheMissCounter().Increment();
  }
  const uint64_t hits = inactive_.size() + (active_.encoded ? 1 : 0);
  if (hits != 0) {
    SerializeCacheHitCounter().Increment(hits);
  }
  const std::vector<uint8_t>& active = active_.Encode();
  size_t total = active.size();
  for (const auto& inst : inactive_) {
    total += inst->bytes.size();
  }

  std::vector<uint8_t> out;
  out.reserve(10 + total);
  PutVarint64(&out, instance_count());
  out.insert(out.end(), active.begin(), active.end());
  for (const auto& inst : inactive_) {
    out.insert(out.end(), inst->bytes.begin(), inst->bytes.end());
  }
  SerializeBytesHistogram().Observe(out.size());
  if (stats != nullptr) {
    // Per-query attribution, computed on demand: re-encode each instance's
    // bags into a scratch buffer, which yields the same bytes as `out` holds.
    std::vector<uint8_t> scratch;
    ForEachInstance([&](const Instance& inst) {
      scratch.clear();
      PutBags(&scratch, inst.bags, &stats->queries);
    });
    stats->bytes = out.size();
    stats->tuples = TupleCount();
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
