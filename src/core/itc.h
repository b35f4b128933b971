// Interval tree clock identifiers (Almeida, Baquero, Fonte — OPODIS 2008).
//
// Pivot Tracing versions baggage instances with the ID component of interval
// tree clocks (§5 "Branches and Versioning"): whenever an execution branches,
// the active instance's ID is split into two globally-unique, non-overlapping
// halves; when branches rejoin, the IDs are joined back. Only the ID half of
// ITC is needed (the event/causality half is carried by the baggage contents
// themselves), so that is what this module implements.
//
// An ID is a binary tree over the unit interval: leaf 0 (owns nothing), leaf 1
// (owns the whole subinterval), or an interior node splitting the interval in
// half. Trees are immutable and structurally shared; ItcId is a cheap value
// type.

#ifndef PIVOT_SRC_CORE_ITC_H_
#define PIVOT_SRC_CORE_ITC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pivot {

class ItcId {
 public:
  // The zero ID (owns no part of the interval).
  ItcId();

  // The seed ID (owns the entire interval) — the root request starts here.
  static ItcId Seed();

  bool IsZero() const;
  bool IsOne() const;

  // Splits this ID into two disjoint non-zero halves whose join equals this
  // ID. Splitting the zero ID yields (zero, zero) per the ITC paper; callers
  // in this library never split zero (the active instance always owns a
  // non-zero ID).
  std::pair<ItcId, ItcId> Split() const;

  // The join (interval union) of two IDs. IDs produced by Split are disjoint
  // and join losslessly; joining overlapping IDs is a protocol violation that
  // this implementation resolves by interval union (see Overlaps()).
  static ItcId Join(const ItcId& a, const ItcId& b);

  // True if the two IDs own any common subinterval. Correct baggage usage
  // never produces overlapping active IDs; tests assert this invariant.
  static bool Overlaps(const ItcId& a, const ItcId& b);

  // Structural equality after normalization (normal forms are canonical).
  bool operator==(const ItcId& other) const;
  bool operator!=(const ItcId& other) const { return !(*this == other); }

  // Compact binary encoding appended to `out`; decoding consumes from
  // data[*pos..size). The encoding is canonical: equal IDs encode equally.
  void Encode(std::vector<uint8_t>* out) const;
  static bool Decode(const uint8_t* data, size_t size, size_t* pos, ItcId* out);

  // "(1, 0)"-style rendering matching the ITC literature.
  std::string ToString() const;

  // Implementation detail exposed for the .cc's free helper functions; not
  // part of the public API surface.
  struct Node;
  using NodePtr = std::shared_ptr<const Node>;

 private:
  explicit ItcId(NodePtr root) : root_(std::move(root)) {}

  NodePtr root_;
};

}  // namespace pivot

#endif  // PIVOT_SRC_CORE_ITC_H_
