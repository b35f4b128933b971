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

// Wire codec for BagSpec (shared by baggage serialization and the agent
// command protocol): u8 semantics, varint limit, then the plan (PutPlan).
// GetBagSpec rejects a kFirstN/kRecentN limit outside 1..kMaxBagTuples, and a
// spec whose semantics and plan disagree: kAggregate with an empty plan, or a
// retention semantics with group fields or aggregates.
void PutBagSpec(std::vector<uint8_t>* out, const BagSpec& spec);
bool GetBagSpec(const uint8_t* data, size_t size, size_t* pos, BagSpec* spec);

// The baggage proper. Value type: copies are independent (copy-on-branch is
// exactly the paper's branch semantics).
class Baggage {
 public:
  // One bag: its spec and its tuples, a ResultSet built from the spec (so
  // under the spec's retention rule, or as partial aggregate state).
  struct Bag {
    explicit Bag(BagSpec s) : spec(std::move(s)), set(spec) {}
    BagSpec spec;
    ResultSet set;
  };

  Baggage() = default;

  // ---- Pack / Unpack (Table 4) ----

  // Packs `t` into bag `key` of the *active* instance, creating the bag with
  // `spec` on first use.
  void Pack(BagKey key, const BagSpec& spec, const Tuple& t);

  // Reads all tuples for `key`: unpacked from each instance (inactive ones
  // first — they are chronologically older) and combined according to the
  // oldest bag's semantics. A bag of another plan is left out. When one
  // instance holds a retention bag, returns its rows in place; otherwise
  // combines them into `*buffer` and returns it. The result stays valid
  // until this baggage or `*buffer` changes.
  const std::vector<Tuple>& Unpack(BagKey key, std::vector<Tuple>* buffer) const;

  // ---- Branching (§5) ----

  // Splits for a branching execution: returns the two sides' baggage. Each
  // side carries a copy of all existing tuples (as inactive instances) and a
  // fresh active instance owning half of this baggage's active ID.
  std::pair<Baggage, Baggage> Split() const;

  // Merges the baggage of two rejoining branches: active instances merge
  // bag-wise under a joined ID; inactive instances are deduplicated by ID.
  // A bag of `b` whose plan differs from that of `a`'s bag of the same key
  // (ResultSet::Absorb) merges nothing; its tuples count as dropped.
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

  const ItcId& active_id() const { return active_.id; }
  size_t instance_count() const { return 1 + inactive_.size(); }

  // Total retained tuples across all instances and bags (the paper's cost
  // metric for propagation overhead, §4).
  size_t TupleCount() const;

  // Total tuples rejected by the kMaxBagTuples safety valve or refused by
  // Join as another plan's, across all instances and bags. Non-zero means a
  // query hit the unbounded-pack guard or a peer sent a conflicting bag.
  uint64_t DroppedTupleCount() const;

  bool IsTrivial() const;

  // Drops all tuples and versioning (end of request).
  void Clear();

 private:
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
    std::map<BagKey, Bag> bags;
    // Memo of the instance's `[gen][id][bags...]` wire segment, current
    // while `encoded`. Pack clears `encoded` on the active instance; a
    // retained instance is encoded when it is frozen or copied from the wire
    // slice it was decoded from, and is immutable behind shared_ptr<const>,
    // so its memo never goes stale. Serializing an unchanged baggage — e.g.
    // on the response leg of an RPC — thus copies cached bytes rather than
    // re-encoding.
    mutable std::vector<uint8_t> bytes;
    mutable bool encoded = false;

    // The wire segment, encoded into the memo first if it is stale.
    const std::vector<uint8_t>& Encode() const;
    // Decodes a wire segment from data[*pos..size), seeding the memo with
    // the slice it was decoded from.
    bool Decode(const uint8_t* data, size_t size, size_t* pos);
  };
  using InstancePtr = std::shared_ptr<const Instance>;

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
