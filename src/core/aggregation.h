// Grouped aggregation with combiner support (Tables 1 and 3).
//
// Pivot Tracing aggregates in three places with the same machinery:
//   1. Pack-side pre-aggregation in the baggage (Table 3's pushed-down A/GA);
//   2. process-local aggregation of emitted tuples in the PT agent (§5);
//   3. global merging of agent reports in the frontend.
// Stages 2 and 3 combine *partial* aggregates, so every aggregator carries a
// combiner ("for Count, the combiner is Sum"). Every level, from a baggage
// bag to the frontend, is one ResultSet, and bags and agent reports ship it
// in one wire form (ResultSet::Encode, docs/WIRE_FORMAT.md "Tuple sets").

#ifndef PIVOT_SRC_CORE_AGGREGATION_H_
#define PIVOT_SRC_CORE_AGGREGATION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/symbol.h"
#include "src/core/tuple.h"
#include "src/core/value.h"

namespace pivot {

enum class AggFn : uint8_t {
  kCount = 0,
  kSum = 1,
  kMin = 2,
  kMax = 3,
  kAverage = 4,
};

// Returns "COUNT", "SUM", ... (the query-language spelling).
const char* AggFnName(AggFn fn);

// One aggregate column of a query: `fn(input)` emitted as column `output`.
// Count ignores `input`.
struct AggSpec {
  AggFn fn;
  std::string input;   // Source column (empty for Count).
  std::string output;  // Result column name, e.g. "SUM(incr.delta)".

  // When true, `input` already holds *partial aggregate state* produced by an
  // upstream (pushed-down) aggregation, and AddInput combines rather than
  // accumulates — the `Combine` of Table 3. For Average the companion count is
  // read from `input + "#n"`.
  bool from_state = false;

  bool operator==(const AggSpec& other) const {
    return fn == other.fn && input == other.input && output == other.output &&
           from_state == other.from_state;
  }

  // Names of the state columns this aggregate externalizes in a state tuple.
  // All functions use one column (named `output`) except Average, which keeps
  // (sum, count) in `output` and `output + "#n"`.
  std::vector<std::string> StateColumns() const;
};

// The result side of a compiled query: how agents and the frontend process
// its emitted tuples. The compiler produces it, the weave command carries it
// to agents, and the linter checks emitted columns against it. A BagSpec
// carries one for aggregation pushed into the baggage. A plan with neither
// group fields nor aggregates streams its raw tuples.
struct ResultPlan {
  std::vector<std::string> group_fields;
  std::vector<AggSpec> aggs;  // from_state marks pushed-down aggregates.

  bool aggregated() const { return !group_fields.empty() || !aggs.empty(); }
  bool operator==(const ResultPlan& other) const = default;
};

// How a baggage bag retains tuples (§3 "Pack also has the following special
// cases"). Every retention bag keeps at most kMaxBagTuples tuples.
enum class PackSemantics : uint8_t {
  kAll = 0,        // Keep the first kMaxBagTuples. Risky (a "full table scan",
                   // §4); the compiler only produces it when a query demands it.
  kFirstN = 1,     // Keep the first `limit` tuples, ignore the rest (FIRST=1).
  kRecentN = 2,    // Keep the most recent `limit` tuples (RECENT=1).
  kAggregate = 3,  // Grouped/plain aggregation; bounded by #groups.
};

// Safety valve: §4 notes that an unrestricted pack "potentially accumulates a
// new tuple for every tracepoint invocation" — the baggage analogue of a full
// table scan. No bag retains more tuples than this; tuples a kAll bag (or a
// larger limit) would have kept beyond it are dropped and counted.
inline constexpr size_t kMaxBagTuples = 4096;

// Static description of a baggage bag: its semantics plus, for kAggregate,
// the pushed-down plan (Table 3). Pack-side and unpack-side advice compiled
// from the same query share the same spec. A retention semantics has an
// empty plan; kAggregate has a non-empty one (GetBagSpec, advice_io.h,
// enforces both).
struct BagSpec {
  PackSemantics semantics = PackSemantics::kAll;
  uint32_t limit = 1;  // kFirstN / kRecentN.
  ResultPlan plan;     // kAggregate.

  bool operator==(const BagSpec& other) const = default;

  static BagSpec All() { return BagSpec{PackSemantics::kAll, 0, {}}; }
  static BagSpec First(uint32_t n = 1) { return BagSpec{PackSemantics::kFirstN, n, {}}; }
  static BagSpec Recent(uint32_t n = 1) { return BagSpec{PackSemantics::kRecentN, n, {}}; }
  static BagSpec Aggregated(std::vector<std::string> groups, std::vector<AggSpec> aggs) {
    return BagSpec{PackSemantics::kAggregate, 0, ResultPlan{std::move(groups), std::move(aggs)}};
  }
};

// Streaming grouped aggregator. Group keys are the values of `group_fields`;
// with no group fields there is a single implicit group (plain Aggregate).
// Output order is group-insertion order, which keeps results deterministic.
//
// Groups live in flat arrays indexed by an open-addressed table of (hash
// tag, group) slots, so a group costs no allocation of its own and is hashed
// once, on insertion: merges, rehashes and report decoding reuse the stored
// hash. A group's key is kept as the bytes PutValue writes for its columns,
// in one arena, so a key is hashed, compared and merged as bytes, and copied
// off the wire as it arrives; only Finalize and StateTuples build Values.
// Byte equality is group equality: int 1, double 1.0 and string "1" land in
// three different groups, doubles compare bitwise (-0.0 and 0.0 are
// distinct groups, and only bit-identical NaNs coalesce). The aggregate
// state is columns chosen per function: an int64 word for COUNT and for
// Average's count, a Value for SUM, MIN, MAX and Average's sum, and one
// has-value bit per aggregate.
class Aggregator {
 public:
  Aggregator(std::vector<std::string> group_fields, std::vector<AggSpec> specs);

  // Accumulates one raw input tuple.
  void AddInput(const Tuple& t);

  // Externalizes partial state: one tuple per group containing the group
  // fields plus each spec's state columns. Suitable for baggage packing.
  std::vector<Tuple> StateTuples() const;

  // Final results: one tuple per group with group fields + each spec's
  // `output` column (Average divides here).
  std::vector<Tuple> Finalize() const;

  // The state rows as a set's payload (ResultSet::Encode): one value per
  // state column, group fields first, and no names. DecodeStateRows merges
  // `rows` of them that fill [data, data + size) exactly, in two passes. The
  // first checks every row, and notes where each key ends and its hash: it
  // refuses a key value not spelled as PutValue spells it
  // (SkipCanonicalValue), and a COUNT or Average count that is neither an
  // int nor null. The second merges, prefetching as MergeGroups does. So a
  // refused payload leaves the aggregator unchanged.
  void EncodeStateRows(std::vector<uint8_t>* out) const;
  bool DecodeStateRows(uint64_t rows, const uint8_t* data, size_t size);

  // Empties the aggregator, keeping its array capacity.
  void Clear();
  bool empty() const { return hashes_.empty(); }
  size_t group_count() const { return hashes_.size(); }

 private:
  friend class ResultSet;  // Shares its columns with EmptyLike() siblings.

  // Column references resolved once per configuration and shared by copies
  // and EmptyLike() siblings, so the per-tuple path reads tuples by SymbolId
  // and creating another aggregator of the plan interns nothing.
  struct SpecIds {
    SymbolId input = kInvalidSymbol;     // spec.input
    SymbolId input_n = kInvalidSymbol;   // spec.input + "#n" (from_state Average)
    SymbolId output = kInvalidSymbol;    // spec.output
    SymbolId output_n = kInvalidSymbol;  // spec.output + "#n" (Average state)
  };
  // Where a spec's state lives in its group's rows.
  struct StateSlot {
    uint32_t word = 0;   // In words_: COUNT's or Average's count.
    uint32_t value = 0;  // In values_: SUM's, MIN's, MAX's or Average's sum.
  };
  struct Columns {
    std::vector<SymbolId> group_ids;
    std::vector<AggSpec> specs;
    std::vector<SpecIds> spec_ids;
    std::vector<StateSlot> state;
    std::vector<std::string> state_names;  // Group fields, then state columns.
    size_t word_width = 0;   // Per group: has-value bit words, then counts.
    size_t value_width = 0;  // Per group: Value states.
  };

  // Open-addressed linear probing over (high 32 hash bits, group). Power-of-
  // two sized; the low hash bits pick the home slot.
  struct IndexSlot {
    uint32_t tag = 0;
    uint32_t group = kEmptySlot;
  };
  static constexpr uint32_t kEmptySlot = UINT32_MAX;

  // A state row DecodeStateRows' first pass checked: the end of its key in
  // the payload (its state values follow), and the key's hash.
  struct RowKey {
    size_t key_end;
    uint64_t hash;
  };

  // A null `cols` leaves the aggregator unconfigured: a streaming ResultSet
  // holds one, and never calls it.
  explicit Aggregator(std::shared_ptr<const Columns> cols) : cols_(std::move(cols)) {}

  // Combines one partial aggregate of spec `i` into a group's state rows:
  // `v` (COUNT's count, or the value), with Average's companion count `n`.
  // The combiner of Table 3; a raw input is a partial aggregate of one
  // tuple. A null, or a COUNT that is not an int, contributes nothing.
  void Combine(size_t i, uint64_t* words, Value* values, const Value& v, int64_t n) const;
  // Combine for COUNT spec `i`: adds `n` to its count.
  void AddCount(size_t i, uint64_t* words, uint64_t n) const;

  // The group whose key `same_key(group)` confirms under `hash`, and whether
  // it was just inserted; adds the slots inspected to `*probes`. An insert
  // records the hash and the index slot; the caller then appends the group's
  // key bytes and state rows.
  template <typename SameKey>
  std::pair<uint32_t, bool> FindOrInsert(uint64_t hash, SameKey same_key, uint64_t* probes);
  // The group of the key bytes [key, key + size) under `hash`, and whether
  // it was just inserted with fresh state.
  std::pair<uint32_t, bool> GroupForKey(const uint8_t* key, size_t size, uint64_t hash,
                                        uint64_t* probes);
  // Appends a fresh group's empty state rows.
  void AppendState();
  // Sizes the arrays and the index for `groups` groups, growing capacity
  // geometrically, so decoding many small sets into one stays linear.
  void Reserve(size_t groups);
  // Rebuilds the index with `slot_count` slots (a power of two).
  void Rehash(size_t slot_count);
  // Prefetches what merging incoming group `g` of `n` reads further on: the
  // index slot, then the state rows, then the key bytes of groups ahead.
  // `hash_of(j)` is incoming group j's hash.
  template <typename HashOf>
  void PrefetchAhead(size_t g, size_t n, HashOf hash_of) const;
  // DecodeStateRows' first pass: true if `rows` state rows fill
  // [data, data + size) exactly; notes row r's RowKey in keys[r] when `keys`
  // is non-null. With null `keys`, ResultSet::Accepts' check.
  bool ScanStateRows(uint64_t rows, const uint8_t* data, size_t size, RowKey* keys) const;
  // The group of `t`'s projected key, inserted with fresh state if new.
  uint32_t GroupFor(const Tuple& t);
  // True if `other` has this aggregator's group fields and specs, so its
  // arrays share this layout.
  bool SameColumns(const Aggregator& other) const;
  // Combines every group of `other`, which has SameColumns, by its stored
  // hash (Table 3's combiner, set to set): adopts `other` whole when this
  // aggregator is empty, else merges its groups in, and leaves `other` empty.
  void Absorb(Aggregator&& other);
  // Combines every group of `other`, which has SameColumns, moving the
  // Value states of new groups in.
  void MergeGroups(Aggregator& other);

  // Calls put(column, value) for each of group g's state columns after its
  // key (AggSpec::StateColumns, spec by spec).
  template <typename Put>
  void ForEachState(size_t g, Put put) const;
  // Appends group g's key columns, decoded from its bytes.
  void AppendKey(size_t g, std::vector<Tuple::Field>* fields) const;
  // Group g's key bytes: [KeyBegin(g), key_ends_[g]).
  size_t KeyBegin(size_t g) const { return g == 0 ? 0 : key_ends_[g - 1]; }
  size_t key_width() const { return cols_->group_ids.size(); }
  size_t spec_count() const { return cols_->specs.size(); }

  std::shared_ptr<const Columns> cols_;
  std::vector<uint8_t> key_bytes_;  // Every group's key, as PutValue writes it.
  std::vector<size_t> key_ends_;    // Per group: the end of its key bytes.
  std::vector<uint64_t> words_;     // group_count x word_width, row-major.
  std::vector<Value> values_;       // group_count x value_width, row-major.
  std::vector<uint64_t> hashes_;    // Per group: hash of its key bytes.
  std::vector<IndexSlot> slots_;    // Empty until the first group; 2^k sized.
};

// The framing of an encoded tuple set, the one wire form of a ResultSet that
// baggage bags and agent reports share (docs/WIRE_FORMAT.md, "Tuple sets"):
//   set := varint (rows << 1 | valve), varint dropped, varint length, payload
// The payload holds `rows` dense rows of values and no names: only a reader
// that knows the columns (a bag's schema, a report's name table) can decode
// it.
struct SetFrame {
  uint64_t rows = 0;
  bool valve = false;
  uint64_t dropped = 0;
  const uint8_t* payload = nullptr;  // `length` bytes.
  size_t length = 0;

  // Appends the frame and its payload.
  void Put(std::vector<uint8_t>* out) const;
  // Reads a frame from data[*pos, size), pointing `payload` into `data`, and
  // steps over its payload without reading it.
  static bool Get(const uint8_t* data, size_t size, size_t* pos, SetFrame* frame);
  // True if the payload is exactly `rows` rows of `width` values.
  bool Fits(size_t width) const;
};

// One tuple set at one level of the combine tree (§5): a baggage bag, an
// agent's emission shard, the agent's interval, a report on the wire or the
// frontend's total. (The frontend keeps its intervals, and an uninstalled
// query's total, as encoded `names, set` slices.) An aggregated plan keeps
// Aggregator state, a streaming plan keeps rows in arrival order. Each level
// absorbs the level below set to set: groups merge through the combiner
// (Table 3), rows append.
class ResultSet {
 public:
  // An uncapped set: an agent's or the frontend's.
  explicit ResultSet(const ResultPlan& plan);
  // A baggage bag's set. A retention bag keeps its first
  // min(limit, kMaxBagTuples) rows (kRecentN: its last; kAll: the first
  // kMaxBagTuples) and counts the rows the kMaxBagTuples valve turns away as
  // dropped. A streaming set configures no aggregator, so building, copying
  // and destroying one allocates nothing beyond its rows.
  explicit ResultSet(const BagSpec& spec);

  // An empty set of the same plan and cap. Shares the resolved columns, so it
  // interns and allocates nothing.
  ResultSet EmptyLike() const;

  // Accumulates one raw emitted (or packed) tuple.
  void AddInput(const Tuple& t);

  // Combines another set of the same plan into this one; `other` is treated
  // as later or concurrent, so a keep-first set keeps its own rows and a
  // keep-last set the other's. The rvalue form adopts `other` whole when this
  // set is empty and leaves `other` empty; the const form of an aggregated
  // set merges a copy of `other`'s groups. Both sets must have one plan: a
  // bag key names one program, so every set of one key does.
  void Absorb(const ResultSet& other);
  void Absorb(ResultSet&& other);

  // Rows as they merge upstream: aggregate state rows
  // (Aggregator::StateTuples), or the retained rows.
  std::vector<Tuple> StateRows() const;
  // Final rows: group fields then aggregate outputs, or the streamed rows.
  std::vector<Tuple> Finalize() const;
  // A streaming set's retained rows in place; null for an aggregated set.
  const std::vector<Tuple>* rows() const { return aggregated_ ? nullptr : &rows_; }

  bool aggregated() const { return aggregated_; }
  // True when rows past the cap count as dropped (the kMaxBagTuples valve).
  bool valve() const { return valve_; }
  // A streaming set's columns on the wire (Encode): its first row's.
  // Empty for an aggregated set, whose state fixes its layout.
  std::vector<SymbolId> Columns() const;

  bool empty() const { return aggregated_ ? agg_.empty() : rows_.empty(); }
  // Groups, or streamed rows.
  size_t size() const { return aggregated_ ? agg_.group_count() : rows_.size(); }

  // Rows the kMaxBagTuples valve turned away, here and in absorbed sets.
  uint64_t dropped() const { return dropped_; }
  // Adds drops counted elsewhere (a bag's count off the wire).
  void AddDropped(uint64_t n) { dropped_ += n; }

  // Appends the set's SetFrame. Its payload is size() rows: aggregate state
  // rows (Aggregator::EncodeStateRows), or one value per column of Columns()
  // (a row that lacks one of its first row's columns writes null there).
  void Encode(std::vector<uint8_t>* out) const;
  // Merges an encoded set whose rows hold `columns` (ignored for an
  // aggregated set) and fill its payload exactly, as Absorb would merge a
  // set holding them: the same retention rule and valve drops, plus the
  // frame's drop count. It interns nothing; on false the set is unchanged.
  bool Decode(const std::vector<SymbolId>& columns, const SetFrame& frame);
  // Streaming sets only: the rows an empty set like this one keeps of such
  // an encoding, written to (*out)[0, kept) reusing its tuples' capacity, so
  // a steady-state decode allocates nothing. On false `*out` is empty.
  bool DecodeRowsInto(const std::vector<SymbolId>& columns, const SetFrame& frame,
                      std::vector<Tuple>* out) const;

  // The names of an encoded set's columns, as a report carries them: an
  // aggregated set's state columns, or the names of Columns().
  std::vector<std::string> ColumnNames() const;
  // Appends the set as `names, set` slices, the form a report carries
  // (ColumnNames, then Encode), that DecodeNamed in order into an empty set
  // like this one turns back into this set, drops included: one slice for an
  // aggregated set, one per run of rows sharing columns for a streaming set,
  // so no row loses a column.
  void EncodeNamed(std::vector<uint8_t>* out) const;
  // Decode, for rows named by `names`. An aggregated set requires exactly its
  // state columns and interns nothing; a streaming set interns each name of
  // a frame that has rows.
  bool DecodeNamed(const std::vector<std::string>& names, const SetFrame& frame);
  // True if DecodeNamed(names, frame) would succeed; changes and interns
  // nothing. Whether it succeeds does not depend on what the set holds.
  bool Accepts(const std::vector<std::string>& names, const SetFrame& frame) const;
  // DecodeNamed for each of a run of `names, set` slices in turn: the bytes
  // EncodeNamed appends, or that a frontend keeps of its reports. On false,
  // the slices before the bad one stay merged.
  bool DecodeSlices(const std::vector<uint8_t>& slices);

 private:
  ResultSet(bool aggregated, Aggregator agg) : aggregated_(aggregated), agg_(std::move(agg)) {}

  // True if `other` has this set's plan (Absorb's precondition).
  bool SamePlan(const ResultSet& other) const;

  // Appends `n` rows starting at `from` under the cap. A full keep-first set
  // copies nothing, and a keep-last set copies at most the last cap_ rows.
  template <typename It>
  void Append(It from, size_t n);
  // Trims the rows to the cap; `uncopied` rows were offered but not copied.
  void Trim(size_t uncopied);

  bool aggregated_;
  bool keep_last_ = false;  // kRecentN.
  bool valve_ = false;      // Drops past the cap are counted (kAll, or limit > kMaxBagTuples).
  size_t cap_ = SIZE_MAX;   // Streaming rows kept; uncapped outside the baggage.
  uint64_t dropped_ = 0;
  Aggregator agg_;           // Unconfigured for a streaming plan.
  std::vector<Tuple> rows_;  // Streaming plans only.
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_AGGREGATION_H_
