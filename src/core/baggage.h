// Baggage: the per-request container for tuples that travels with a request
// across thread, process and machine boundaries (§4, §5, Table 4).
//
// Baggage is what makes the happened-before join cheap: advice at an earlier
// tracepoint Packs (projected, pre-aggregated) tuples; advice at a later
// tracepoint Unpacks them and joins in situ, so no global θ-join is needed
// (Fig 6b vs 6a).
//
// To preserve happened-before across branching executions, baggage maintains
// versioned *instances* identified by interval-tree-clock IDs: tuples packed
// on one branch are invisible to concurrent branches until the branches
// rejoin (§5 "Branches and Versioning").

#ifndef PIVOT_SRC_CORE_BAGGAGE_H_
#define PIVOT_SRC_CORE_BAGGAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/core/aggregation.h"
#include "src/core/itc.h"
#include "src/core/tuple.h"

namespace pivot {

// Identifies one bag within the baggage. Queries are assigned unique ids by
// the frontend; a query with k happened-before joins uses k distinct bags
// (one per packing stage), so keys are allocated per (query, stage).
using BagKey = uint64_t;

// Bag-key allocation convention (shared with the query compiler): key =
// query_id * kBagKeysPerQuery + stage, minted per (query, stage). Queries
// whose pack stages are equal share the key the first of them minted, while
// any of them is live (the frontend's live-bag table); a key is never minted
// again, so it never names two different programs. BagKeyQuery recovers the
// minting query, which the self-telemetry layer uses to attribute serialized
// baggage bytes per query (Fig 10's per-query accounting, live); a shared
// bag is charged to its minting query.
inline constexpr uint64_t kBagKeysPerQuery = 256;
inline constexpr uint64_t BagKeyQuery(BagKey key) { return key / kBagKeysPerQuery; }

// What a step that packs or unpacks a bag knows about it: its spec, as an
// empty bag, and a retention bag's columns in wire order (an aggregate bag's
// state fixes its own). A bag travels as bare values (docs/WIRE_FORMAT.md,
// "Baggage"), so only a holder of its schema can read it.
// TracepointRegistry::WeaveQuery binds one into every Pack and Unpack step,
// from the query's own Pack op for the key: its spec and projection.
struct BagSchema {
  BagSchema(const BagSpec& spec, std::vector<SymbolId> columns)
      : columns(std::move(columns)), empty(spec) {}

  std::vector<SymbolId> columns;
  // An empty bag of the spec. Its EmptyLike() copies share its resolved
  // columns, so building a bag interns nothing.
  ResultSet empty;
};
using BagSchemaPtr = std::shared_ptr<const BagSchema>;

// The baggage proper. Value type: copies are independent (copy-on-branch is
// exactly the paper's branch semantics).
//
// A bag is decoded only by a step that holds its schema. Deserialize parses
// the framing and keeps each bag as its encoded values; Serialize writes an
// untouched bag back byte for byte, so a process forwards bags it never
// reads without interpreting them (opaque passthrough, as in the Tracing
// Plane). Unpack decodes into the caller's buffer, never into the baggage.
class Baggage {
 public:
  Baggage() = default;

  // ---- Pack / Unpack (Table 4) ----

  // Packs `t` into bag `key` of the *active* instance. A new bag takes the
  // plan of the key's bag in an older instance, if one is decoded, else
  // `schema`'s; a bag that arrived encoded is decoded under `schema` first.
  void Pack(BagKey key, const BagSchema& schema, const Tuple& t);
  // The same, for a caller without a schema: a new bag's columns are those
  // of its first tuple.
  void Pack(BagKey key, const BagSpec& spec, const Tuple& t);

  // Reads all tuples for `key`: unpacked from each instance (inactive ones
  // first — they are chronologically older) and combined under the bag's
  // semantics. Encoded bags decode under `schema`, or as a decoded holder's
  // set reads when `schema` is null; with neither they read as empty.
  // A payload that does not fit the schema reads as empty and counts once
  // in `baggage.deserialize.errors`. When one instance holds a decoded
  // retention bag, returns its rows in place; otherwise decodes or combines
  // into `*buffer` and returns it. The result stays valid until this
  // baggage or `*buffer` changes.
  const std::vector<Tuple>& Unpack(BagKey key, const BagSchema* schema,
                                   std::vector<Tuple>* buffer) const;

  // ---- Branching (§5) ----

  // Splits for a branching execution: returns the two sides' baggage. Each
  // side carries a copy of all existing tuples (as inactive instances) and a
  // fresh active instance owning half of this baggage's active ID.
  std::pair<Baggage, Baggage> Split() const;

  // Merges the baggage of two rejoining branches: active instances merge
  // bag-wise under a joined ID; inactive instances are deduplicated by ID.
  // Two encoded bags of one key merge by concatenating their values, which
  // decode to what ResultSet::Absorb of the two decoded bags gives.
  static Baggage Join(const Baggage& a, const Baggage& b);

  // ---- Serialization (Table 4) ----

  // Self-telemetry of one serialization: the numbers behind Fig 10 (baggage
  // bytes on the wire) attributed per owning query.
  struct SerializeStats {
    struct QueryShare {
      uint64_t bytes = 0;   // Encoded bag bytes (framing and values).
      uint64_t tuples = 0;  // Tuples in those bags (TupleCount's rule).
    };
    uint64_t bytes = 0;      // Total serialized size.
    uint64_t tuples = 0;     // Tuples across all instances.
    uint64_t instances = 0;  // Active + inactive instances.
    // Keyed by BagKeyQuery(bag key); framing bytes (instance ids, counts)
    // are the remainder bytes - sum(shares.bytes).
    std::map<uint64_t, QueryShare> queries;
  };

  // A pristine baggage (seed ID, no tuples anywhere) serializes to 0 bytes,
  // matching the paper's "empty baggage with a serialized size of 0 bytes".
  // The stats overload additionally reports the byte/tuple accounting above
  // (only computed when requested — the plain overload stays allocation-lean).
  std::vector<uint8_t> Serialize() const { return Serialize(nullptr); }
  std::vector<uint8_t> Serialize(SerializeStats* stats) const;
  static Result<Baggage> Deserialize(const uint8_t* data, size_t size);
  static Result<Baggage> Deserialize(const std::vector<uint8_t>& bytes) {
    return Deserialize(bytes.data(), bytes.size());
  }

  // ---- Introspection ----

  const ItcId& active_id() const { return active_.id; }
  size_t instance_count() const { return 1 + inactive_.size(); }

  // Total tuples across all instances and bags (the paper's cost metric for
  // propagation overhead, §4). An encoded bag counts its rows on the wire,
  // at most kMaxBagTuples under the valve: two joined FirstN bags count both
  // sides' rows until a step decodes them.
  size_t TupleCount() const;

  // Total tuples rejected by the kMaxBagTuples safety valve, across all
  // instances and bags; an encoded bag's rows past the valve count too.
  // Non-zero means a query hit the unbounded-pack guard.
  uint64_t DroppedTupleCount() const;

  bool IsTrivial() const;

  // Drops all tuples and versioning (end of request).
  void Clear();

 private:
  // One bag: decoded (its tuples) or encoded (as it arrived, or as Join
  // concatenated two encodings of it). A decoded bag's wire columns are its
  // set's Columns(), so it holds no schema: packing a bag writes no
  // reference count that other threads' requests write too.
  struct Bag {
    bool decoded = false;
    ResultSet set{ResultPlan()};
    // Encoded form: `rows` dense rows of values in `payload`, and the
    // framing's valve flag and drop count. The payload's bytes are kept in a
    // string, whose inline buffer holds a short one without allocating.
    uint64_t rows = 0;
    bool valve = false;
    uint64_t dropped = 0;
    std::string payload;

    SetFrame frame() const {
      return SetFrame{rows, valve, dropped, reinterpret_cast<const uint8_t*>(payload.data()),
                      payload.size()};
    }

    size_t TupleCount() const;
    uint64_t DroppedCount() const;
  };
  using Bags = std::map<BagKey, Bag>;

  // One instance: the active one, which Pack writes, or a retained one.
  struct Instance {
    // Instance identity is (id, gen): the interval-tree ID alone is not
    // globally unique over time because joining the two halves of a split
    // recreates the parent interval (split → join → split would reuse the
    // seed ID). The generation counter increases at every split/join, so
    // snapshots taken in different epochs never collide, while copies of the
    // *same* snapshot propagated along different branches still deduplicate.
    ItcId id = ItcId::Seed();
    uint64_t gen = 0;
    Bags bags;
    // Memo of the instance's `[gen][id][bags...]` wire segment, current
    // while `encoded`. Pack clears `encoded` on the active instance; a
    // retained instance is encoded when it is frozen or copied from the wire
    // slice it was decoded from, and is immutable behind shared_ptr<const>,
    // so its memo never goes stale. Unpack decodes outside the instance, so
    // reading a bag leaves the memo current. Serializing an unchanged
    // baggage — e.g. on the response leg of an RPC — thus copies cached
    // bytes rather than re-encoding.
    mutable std::vector<uint8_t> bytes;
    mutable bool encoded = false;

    // The wire segment, encoded into the memo first if it is stale.
    const std::vector<uint8_t>& Encode() const;
    // Parses a wire segment's framing from data[*pos..size), keeping each
    // bag encoded and seeding the memo with the slice.
    bool Decode(const uint8_t* data, size_t size, size_t* pos);
  };
  using InstancePtr = std::shared_ptr<const Instance>;

  // Appends `bags` in wire form; adds each bag's bytes and tuples to its
  // query's share when `shares` is given.
  static void PutBags(std::vector<uint8_t>* out, const Bags& bags,
                      std::map<uint64_t, SerializeStats::QueryShare>* shares);
  // An encoded bag's tuples as a set like `like` with rows of `columns`,
  // empty (and counted) when its values do not fit them.
  static ResultSet Decoded(const Bag& bag, const ResultSet& like,
                           const std::vector<SymbolId>& columns);

  // Calls `fn` on every instance, oldest first: the retained ones in
  // chronological order, then the active one.
  template <typename Fn>
  void ForEachInstance(Fn&& fn) const {
    for (const InstancePtr& inst : inactive_) {
      fn(*inst);
    }
    fn(active_);
  }

  Instance active_;
  // Retained (immutable) instances, chronological order, oldest first.
  // Copy-on-write: Split/Join/copy share them instead of deep-copying.
  std::vector<InstancePtr> inactive_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_BAGGAGE_H_
