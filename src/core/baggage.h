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
#include <optional>
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
// query_id * kBagKeysPerQuery + stage. BagKeyQuery recovers the owning query,
// which the self-telemetry layer uses to attribute serialized baggage bytes
// per query (Fig 10's per-query accounting, live).
inline constexpr uint64_t kBagKeysPerQuery = 256;
inline constexpr uint64_t BagKeyQuery(BagKey key) { return key / kBagKeysPerQuery; }

// How a bag retains tuples (§3 "Pack also has the following special cases").
// Every retention bag keeps at most kMaxBagTuples tuples.
enum class PackSemantics : uint8_t {
  kAll = 0,        // Keep the first kMaxBagTuples. Risky (a "full table scan",
                   // §4); the compiler only produces it when a query demands it.
  kFirstN = 1,     // Keep the first `limit` tuples, ignore the rest (FIRST=1).
  kRecentN = 2,    // Keep the most recent `limit` tuples (RECENT=1).
  kAggregate = 3,  // Grouped/plain aggregation; bounded by #groups.
};

// Static description of a bag: semantics plus, for kAggregate, the grouping
// and aggregate columns. Pack-side and unpack-side advice compiled from the
// same query share the same spec.
struct BagSpec {
  PackSemantics semantics = PackSemantics::kAll;
  uint32_t limit = 1;                       // kFirstN / kRecentN.
  std::vector<std::string> group_fields;    // kAggregate.
  std::vector<AggSpec> aggs;                // kAggregate.

  bool operator==(const BagSpec& other) const;

  static BagSpec All() { return BagSpec{PackSemantics::kAll, 0, {}, {}}; }
  static BagSpec First(uint32_t n = 1) { return BagSpec{PackSemantics::kFirstN, n, {}, {}}; }
  static BagSpec Recent(uint32_t n = 1) { return BagSpec{PackSemantics::kRecentN, n, {}, {}}; }
  static BagSpec Aggregated(std::vector<std::string> groups, std::vector<AggSpec> aggs) {
    return BagSpec{PackSemantics::kAggregate, 0, std::move(groups), std::move(aggs)};
  }
};

// Wire codec for BagSpec (shared by baggage serialization and the agent
// command protocol). GetBagSpec rejects a kFirstN/kRecentN limit outside
// 1..kMaxBagTuples.
void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec);
bool GetBagSpec(const uint8_t* data, size_t size, size_t* pos, BagSpec* spec);

// Safety valve: §4 notes that an unrestricted pack "potentially accumulates a
// new tuple for every tracepoint invocation" — the baggage analogue of a full
// table scan. No bag retains more tuples than this; tuples a kAll bag (or a
// larger limit) would have kept beyond it are dropped and counted.
inline constexpr size_t kMaxBagTuples = 4096;

// One bag: retained tuples under a BagSpec. For kAggregate the retained form
// is partial aggregate state (see Aggregator::StateTuples).
class TupleBag {
 public:
  TupleBag() = default;
  explicit TupleBag(BagSpec spec);

  const BagSpec& spec() const { return spec_; }

  // Tuples rejected by the kMaxBagTuples safety valve.
  uint64_t dropped() const { return dropped_; }

  // Packs one tuple under the bag's semantics.
  void Add(const Tuple& t);

  // Merges another bag, normally of the same spec (branch rejoin / multi-
  // instance unpack). `other` is treated as later/concurrent: for kFirstN
  // this bag's tuples win; for kRecentN the other's win. A bag of another
  // spec, as a peer may send, merges under this bag's spec.
  void MergeFrom(const TupleBag& other);

  // Wire form: the contents as a result-set (Aggregator::EncodeState for
  // kAggregate, else PutRows), then the dropped count. Decode fills a fresh
  // bag of the wire spec; an aggregate bag's name table must equal its
  // spec's state columns.
  void Encode(std::vector<uint8_t>* out) const;
  bool Decode(const uint8_t* data, size_t size, size_t* pos);

  // The externalized contents: retained tuples, or aggregate state tuples.
  std::vector<Tuple> Contents() const;

  size_t size() const;
  bool empty() const { return size() == 0; }

 private:
  // The one retention rule: a bag keeps its first Cap() tuples (kRecentN: its
  // last), and counts the tuples the valve turns away as dropped.
  // kAll's cap is kMaxBagTuples; every other cap is min(limit, kMaxBagTuples).
  size_t Cap() const;
  // Appends `n` tuples under the rule. A full keep-first bag copies nothing,
  // and a keep-last bag copies at most the last Cap() of them.
  void Append(const Tuple* in, size_t n);
  // Trims the bag to its cap; `uncopied` tuples were offered but not copied.
  void Trim(size_t uncopied);

  BagSpec spec_;
  std::vector<Tuple> tuples_;      // Retention semantics.
  uint64_t dropped_ = 0;           // kMaxBagTuples overflow count.
  std::optional<Aggregator> agg_;  // kAggregate only.
};

// The baggage proper. Value type: copies are independent (copy-on-branch is
// exactly the paper's branch semantics).
class Baggage {
 public:
  Baggage() = default;

  // ---- Pack / Unpack (Table 4) ----

  // Packs `t` into bag `key` of the *active* instance, creating the bag with
  // `spec` on first use.
  void Pack(BagKey key, const BagSpec& spec, const Tuple& t);

  // Retrieves all tuples for `key`: unpacked from each instance (inactive
  // ones first — they are chronologically older) and combined according to
  // the bag's semantics.
  std::vector<Tuple> Unpack(BagKey key) const;

  // ---- Branching (§5) ----

  // Splits for a branching execution: returns the two sides' baggage. Each
  // side carries a copy of all existing tuples (as inactive instances) and a
  // fresh active instance owning half of this baggage's active ID.
  std::pair<Baggage, Baggage> Split() const;

  // Merges the baggage of two rejoining branches: active instances merge
  // bag-wise under a joined ID; inactive instances are deduplicated by ID.
  static Baggage Join(const Baggage& a, const Baggage& b);

  // ---- Serialization (Table 4) ----

  // Self-telemetry of one serialization: the numbers behind Fig 10 (baggage
  // bytes on the wire) attributed per owning query.
  struct SerializeStats {
    struct QueryShare {
      uint64_t bytes = 0;   // Encoded bag bytes (key + spec + tuples).
      uint64_t tuples = 0;  // Retained tuples in those bags.
    };
    uint64_t bytes = 0;      // Total serialized size.
    uint64_t tuples = 0;     // Retained tuples across all instances.
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

  const ItcId& active_id() const { return active_id_; }
  size_t instance_count() const { return 1 + inactive_.size(); }

  // Total retained tuples across all instances and bags (the paper's cost
  // metric for propagation overhead, §4).
  size_t TupleCount() const;

  // Total tuples rejected by the kMaxBagTuples safety valve, across all
  // instances and bags. Non-zero means a query hit the unbounded-pack guard.
  uint64_t DroppedTupleCount() const;

  bool IsTrivial() const;

  // Drops all tuples and versioning (end of request).
  void Clear();

 private:
  struct Instance {
    // Instance identity is (id, gen): the interval-tree ID alone is not
    // globally unique over time because joining the two halves of a split
    // recreates the parent interval (split → join → split would reuse the
    // seed ID). The generation counter increases at every split/join, so
    // snapshots taken in different epochs never collide, while copies of the
    // *same* snapshot propagated along different branches still deduplicate.
    ItcId id;
    uint64_t gen = 0;
    std::map<BagKey, TupleBag> bags;
    // The instance's `[gen][id][bags...]` wire segment, encoded when the
    // instance is frozen or copied from the wire slice it was decoded from.
    // Instances are immutable behind shared_ptr<const>, so it never changes.
    std::vector<uint8_t> bytes;
  };
  using InstancePtr = std::shared_ptr<const Instance>;

  // Freezes the active instance (id/gen/bags snapshot, encoded) for
  // retention on both sides of a split. Does not touch this baggage.
  InstancePtr FreezeActive() const;

  // The active instance's contents live directly in the Baggage object.
  ItcId active_id_ = ItcId::Seed();
  uint64_t active_gen_ = 0;
  std::map<BagKey, TupleBag> active_bags_;
  // Retained (immutable) instances, chronological order, oldest first.
  // Copy-on-write: Split/Join/copy share them instead of deep-copying.
  std::vector<InstancePtr> inactive_;

  // Memoized encoding of the active instance; invalidated by Pack (the only
  // mutation of active_bags_) and seeded by Deserialize, so serializing an
  // unchanged baggage — e.g. on the response leg of an RPC — is a copy of
  // cached bytes rather than a re-encode.
  mutable std::vector<uint8_t> active_bytes_;
  mutable bool active_bytes_valid_ = false;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_BAGGAGE_H_
