#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/rand.h"
#include "src/core/baggage.h"
#include "src/core/wire.h"
#include "src/telemetry/metrics.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

Tuple T(const std::string& name, int64_t v) { return Tuple{{name, Value(v)}}; }

std::vector<std::string> Canonical(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  out.reserve(tuples.size());
  for (const auto& t : tuples) {
    out.push_back(t.ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------------
// ResultSet semantics

TEST(TupleBagTest, AllKeepsEverything) {
  ResultSet bag(BagSpec::All());
  for (int64_t i = 0; i < 5; ++i) {
    bag.AddInput(T("x", i));
  }
  EXPECT_EQ(bag.size(), 5u);
}

TEST(TupleBagTest, FirstKeepsFirst) {
  ResultSet bag(BagSpec::First(1));
  bag.AddInput(T("x", 1));
  bag.AddInput(T("x", 2));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 1);
}

TEST(TupleBagTest, FirstNKeepsFirstN) {
  ResultSet bag(BagSpec::First(2));
  for (int64_t i = 1; i <= 4; ++i) {
    bag.AddInput(T("x", i));
  }
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 1);
  EXPECT_EQ(contents[1].Get("x").int_value(), 2);
}

TEST(TupleBagTest, RecentKeepsMostRecent) {
  ResultSet bag(BagSpec::Recent(1));
  bag.AddInput(T("x", 1));
  bag.AddInput(T("x", 2));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 2);
}

TEST(TupleBagTest, RecentNKeepsLastNInOrder) {
  ResultSet bag(BagSpec::Recent(2));
  for (int64_t i = 1; i <= 4; ++i) {
    bag.AddInput(T("x", i));
  }
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 2u);
  EXPECT_EQ(contents[0].Get("x").int_value(), 3);
  EXPECT_EQ(contents[1].Get("x").int_value(), 4);
}

TEST(TupleBagTest, AggregateBagAccumulates) {
  ResultSet bag(BagSpec::Aggregated({}, {{AggFn::kSum, "x", "SUM(x)", false}}));
  bag.AddInput(T("x", 3));
  bag.AddInput(T("x", 4));
  auto contents = bag.StateRows();
  ASSERT_EQ(contents.size(), 1u);
  EXPECT_EQ(contents[0].Get("SUM(x)").int_value(), 7);
}

TEST(TupleBagTest, MergeFirstPrefersThis) {
  ResultSet a(BagSpec::First(1));
  ResultSet b(BagSpec::First(1));
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("x").int_value(), 1);
}

TEST(TupleBagTest, MergeRecentPrefersOther) {
  ResultSet a(BagSpec::Recent(1));
  ResultSet b(BagSpec::Recent(1));
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("x").int_value(), 2);
}

TEST(TupleBagTest, MergeAggregateCombines) {
  BagSpec spec = BagSpec::Aggregated({}, {{AggFn::kCount, "", "COUNT", false}});
  ResultSet a(spec);
  ResultSet b(spec);
  a.AddInput(T("x", 1));
  b.AddInput(T("x", 2));
  b.AddInput(T("x", 3));
  a.Absorb(b);
  EXPECT_EQ(a.StateRows()[0].Get("COUNT").int_value(), 3);
}

// ---------------------------------------------------------------------------
// Baggage pack / unpack

TEST(BaggageTest, PackUnpack) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(1, BagSpec::All(), T("x", 2));
  auto tuples = UnpackCopy(bag, 1);
  ASSERT_EQ(tuples.size(), 2u);
  EXPECT_TRUE(UnpackCopy(bag, 999).empty());
}

TEST(BaggageTest, DistinctBagsAreIsolated) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(2, BagSpec::All(), T("y", 9));
  EXPECT_EQ(UnpackCopy(bag, 1).size(), 1u);
  EXPECT_EQ(UnpackCopy(bag, 2).size(), 1u);
  EXPECT_EQ(UnpackCopy(bag, 2)[0].Get("y").int_value(), 9);
}

// Two aggregate specs that disagree on group width and aggregate count, as
// one bag key can carry when a malformed peer sends it under another spec.
BagSpec WideSumSpec() {
  return BagSpec::Aggregated({"a", "b"}, {{AggFn::kSum, "x", "S", false}});
}
BagSpec NarrowCountSumSpec() {
  return BagSpec::Aggregated(
      {"a"}, {{AggFn::kCount, "", "C", false}, {AggFn::kSum, "x", "S", false}});
}

Tuple ABX(int64_t a, int64_t b, int64_t x) {
  return Tuple{{"a", Value(a)}, {"b", Value(b)}, {"x", Value(x)}};
}

TEST(BaggageTest, PeerBagUnderAnotherPlanIsDroppedAndCounted) {
  // A peer's bytes carry our bag key under another plan. Joining them keeps
  // only our tuples and counts the peer's groups (or rows) as dropped, with
  // either spec as ours, and for a retention bag against an aggregate one.
  struct Case {
    BagSpec ours;
    BagSpec peer;
  };
  const std::vector<Case> cases = {{WideSumSpec(), NarrowCountSumSpec()},
                                   {NarrowCountSumSpec(), WideSumSpec()},
                                   {BagSpec::All(), NarrowCountSumSpec()},
                                   {NarrowCountSumSpec(), BagSpec::All()}};
  constexpr BagKey kKey = 5;
  for (size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(i);
    Baggage ours;
    ours.Pack(kKey, cases[i].ours, ABX(1, 2, 5));
    Baggage peer;
    peer.Pack(kKey, cases[i].peer, ABX(1, 2, 7));
    peer.Pack(kKey, cases[i].peer, ABX(3, 4, 1));
    ASSERT_EQ(peer.TupleCount(), 2u);

    Result<Baggage> received = Baggage::Deserialize(peer.Serialize());
    ASSERT_TRUE(received.ok());
    Baggage joined = Baggage::Join(ours, *received);
    EXPECT_EQ(Canonical(UnpackCopy(joined, kKey)), Canonical(UnpackCopy(ours, kKey)));
    EXPECT_EQ(joined.DroppedTupleCount(), 2u);
  }
}

TEST(BaggageTest, TrivialBaggageSerializesToZeroBytes) {
  // "By default, Pivot Tracing propagates an empty baggage with a serialized
  // size of 0 bytes" (§6.3).
  Baggage bag;
  EXPECT_TRUE(bag.IsTrivial());
  EXPECT_TRUE(bag.Serialize().empty());
}

TEST(BaggageTest, DeserializeEmptyYieldsTrivial) {
  Result<Baggage> bag = Baggage::Deserialize(nullptr, 0);
  ASSERT_TRUE(bag.ok());
  EXPECT_TRUE(bag->IsTrivial());
}

TEST(BaggageTest, SerializeRoundTripPreservesTuples) {
  Baggage bag;
  bag.Pack(7, BagSpec::First(2), Tuple{{"cl.procName", Value("HGET")}});
  bag.Pack(9, BagSpec::Aggregated({"g"}, {{AggFn::kSum, "v", "S", false}}),
           Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  std::vector<uint8_t> bytes = bag.Serialize();
  ASSERT_FALSE(bytes.empty());

  Result<Baggage> decoded = Baggage::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(Canonical(UnpackCopy(*decoded, 7)), Canonical(UnpackCopy(bag, 7)));
  EXPECT_EQ(Canonical(UnpackCopy(*decoded, 9)), Canonical(UnpackCopy(bag, 9)));
  // Re-serialization is stable.
  EXPECT_EQ(decoded->Serialize(), bytes);
}

TEST(BaggageTest, SerializedSizeGrowsLinearlyInTuples) {
  // Fig 10's premise: size is approximately linear in packed tuple count.
  auto size_with = [](int n) {
    Baggage bag;
    for (int i = 0; i < n; ++i) {
      bag.Pack(1, BagSpec::All(), T("x", i));
    }
    return bag.Serialize().size();
  };
  size_t s10 = size_with(10);
  size_t s20 = size_with(20);
  size_t s40 = size_with(40);
  EXPECT_NEAR(static_cast<double>(s40 - s20), static_cast<double>(s20 - s10) * 2.0,
              static_cast<double>(s10));
}

TEST(BaggageTest, DeserializeRejectsTrailingBytes) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  std::vector<uint8_t> bytes = bag.Serialize();
  bytes.push_back(0xFF);
  EXPECT_FALSE(Baggage::Deserialize(bytes).ok());
}

TEST(BaggageTest, DeserializeFuzzDoesNotCrash) {
  Rng rng(404);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(64));
    for (auto& b : junk) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    // Must either fail cleanly or produce a usable baggage; never crash.
    Result<Baggage> result = Baggage::Deserialize(junk);
    if (result.ok()) {
      result->TupleCount();
    }
  }
}

TEST(BaggageTest, TruncatedRealBaggageFailsCleanly) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), Tuple{{"name", Value("some-string-payload")}});
  std::vector<uint8_t> bytes = bag.Serialize();
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    Result<Baggage> result = Baggage::Deserialize(bytes.data(), cut);
    EXPECT_FALSE(result.ok()) << "cut=" << cut;
  }
}

// ---------------------------------------------------------------------------
// Branching (§5)

TEST(BaggageTest, SplitIsolatesBranches) {
  // "Tuples packed by one branch cannot be visible to any other branch until
  // the branches rejoin."
  Baggage parent;
  parent.Pack(1, BagSpec::All(), T("x", 1));
  auto [left, right] = parent.Split();

  left.Pack(1, BagSpec::All(), T("x", 100));
  right.Pack(1, BagSpec::All(), T("x", 200));

  // Both branches see the pre-split tuple plus their own only.
  EXPECT_EQ(Canonical(UnpackCopy(left, 1)), (std::vector<std::string>{"(x=1)", "(x=100)"}));
  EXPECT_EQ(Canonical(UnpackCopy(right, 1)), (std::vector<std::string>{"(x=1)", "(x=200)"}));
}

TEST(BaggageTest, JoinMergesBranchesAndDeduplicatesHistory) {
  Baggage parent;
  parent.Pack(1, BagSpec::All(), T("x", 1));
  auto [left, right] = parent.Split();
  left.Pack(1, BagSpec::All(), T("x", 100));
  right.Pack(1, BagSpec::All(), T("x", 200));

  Baggage joined = Baggage::Join(left, right);
  // The pre-split tuple appears once (duplicate inactive instances dropped).
  EXPECT_EQ(Canonical(UnpackCopy(joined, 1)),
            (std::vector<std::string>{"(x=1)", "(x=100)", "(x=200)"}));
  // ID recovered: split then join restores the seed interval.
  EXPECT_EQ(joined.active_id(), ItcId::Seed());
}

TEST(BaggageTest, NestedSplitJoin) {
  Baggage root;
  auto [a, bc] = root.Split();
  auto [b, c] = bc.Split();
  a.Pack(1, BagSpec::All(), T("x", 1));
  b.Pack(1, BagSpec::All(), T("x", 2));
  c.Pack(1, BagSpec::All(), T("x", 3));
  Baggage joined = Baggage::Join(a, Baggage::Join(b, c));
  EXPECT_EQ(Canonical(UnpackCopy(joined, 1)),
            (std::vector<std::string>{"(x=1)", "(x=2)", "(x=3)"}));
  EXPECT_EQ(joined.active_id(), ItcId::Seed());
}

TEST(BaggageTest, SplitBranchesHaveDisjointIds) {
  Baggage root;
  auto [left, right] = root.Split();
  EXPECT_FALSE(ItcId::Overlaps(left.active_id(), right.active_id()));
}

TEST(BaggageTest, SplitSerializesAndSurvivesWire) {
  Baggage root;
  root.Pack(1, BagSpec::First(1), T("x", 7));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::First(1), T("x", 8));

  // Ship the left branch across a (simulated) boundary.
  Result<Baggage> shipped = Baggage::Deserialize(left.Serialize());
  ASSERT_TRUE(shipped.ok());
  Baggage joined = Baggage::Join(*shipped, right);
  // FIRST semantics across instances: the pre-split tuple (oldest) wins.
  auto tuples = UnpackCopy(joined, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 7);
}

TEST(BaggageTest, FirstSemanticsAcrossSplitPrefersOldest) {
  Baggage root;
  root.Pack(1, BagSpec::First(1), T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::First(1), T("x", 2));
  auto tuples = UnpackCopy(left, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 1);
}

TEST(BaggageTest, RecentSemanticsAcrossSplitPrefersNewest) {
  Baggage root;
  root.Pack(1, BagSpec::Recent(1), T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, BagSpec::Recent(1), T("x", 2));
  auto tuples = UnpackCopy(left, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("x").int_value(), 2);
}

TEST(BaggageTest, AggregateAcrossSplitCombines) {
  BagSpec spec = BagSpec::Aggregated({}, {{AggFn::kSum, "x", "S", false}});
  Baggage root;
  root.Pack(1, spec, T("x", 1));
  auto [left, right] = root.Split();
  left.Pack(1, spec, T("x", 10));
  right.Pack(1, spec, T("x", 100));
  Baggage joined = Baggage::Join(left, right);
  auto tuples = UnpackCopy(joined, 1);
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].Get("S").int_value(), 111);
}

TEST(BaggageTest, DecodedInstancesWithConflictingAggregateSpecsMergeSafely) {
  Baggage root;
  root.Pack(1, WideSumSpec(), ABX(1, 2, 5));
  auto [left, right] = root.Split();
  left.Pack(1, NarrowCountSumSpec(), ABX(1, 9, 7));
  right.Pack(1, WideSumSpec(), ABX(1, 2, 100));

  // The conflicting spec crosses the wire, then meets the other branch. A
  // bag of another plan merges nothing: Unpack combines under the oldest
  // instance's spec, and Join counts the refused group as dropped.
  Result<Baggage> shipped = Baggage::Deserialize(left.Serialize());
  ASSERT_TRUE(shipped.ok());
  std::vector<Tuple> unpacked = UnpackCopy(*shipped, 1);
  EXPECT_EQ(Canonical(unpacked), (std::vector<std::string>{"(a=1, b=2, S=5)"}));

  Baggage joined = Baggage::Join(*shipped, right);
  EXPECT_EQ(Canonical(UnpackCopy(joined, 1)), (std::vector<std::string>{"(a=1, b=2, S=5)"}));
  EXPECT_EQ(joined.DroppedTupleCount(), 1u);
  Result<Baggage> reshipped = Baggage::Deserialize(joined.Serialize());
  ASSERT_TRUE(reshipped.ok());
  EXPECT_EQ(Canonical(UnpackCopy(*reshipped, 1)), Canonical(UnpackCopy(joined, 1)));
  EXPECT_EQ(reshipped->DroppedTupleCount(), 1u);
}

TEST(BaggageTest, TupleCountAndClear) {
  Baggage bag;
  bag.Pack(1, BagSpec::All(), T("x", 1));
  bag.Pack(2, BagSpec::All(), T("y", 2));
  auto [l, r] = bag.Split();
  l.Pack(1, BagSpec::All(), T("x", 3));
  EXPECT_EQ(l.TupleCount(), 3u);
  l.Clear();
  EXPECT_TRUE(l.IsTrivial());
  EXPECT_EQ(l.TupleCount(), 0u);
}

// The memoized-encoding contract (docs/PERFORMANCE.md): serializing a baggage
// that has not changed since its last Serialize — the response leg of every
// RPC — reuses cached bytes per instance instead of re-encoding, observable
// through the baggage.serialize_cache_hit/miss counters. Each non-trivial
// Serialize counts exactly one hit-or-miss for the active instance plus one
// per inactive instance.
TEST(BaggageCache, SerializeAfterRpcHopReusesCachedBytes) {
  telemetry::Counter& hits =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_hit");
  telemetry::Counter& misses =
      telemetry::Metrics().GetCounter("baggage.serialize_cache_miss");

  // One frozen inactive instance (via Split) + tuples in the active instance.
  Baggage b;
  b.Pack(5, BagSpec::All(), T("a", 1));
  auto [left, right] = b.Split();
  Baggage sender = std::move(left);
  sender.Pack(6, BagSpec::All(), T("b", 2));

  // Request leg: first serialize encodes (misses allowed), and the result is
  // cached per instance.
  std::vector<uint8_t> wire = sender.Serialize();

  // Response leg: nothing changed — every instance must hit its cache.
  uint64_t h0 = hits.value(), m0 = misses.value();
  EXPECT_EQ(sender.Serialize(), wire);
  EXPECT_EQ(hits.value(), h0 + 2);  // active + 1 inactive
  EXPECT_EQ(misses.value(), m0);

  // Receiver side: Deserialize seeds each instance's cache from the wire
  // slice, so the hop's re-serialize is also all hits and byte-identical.
  Result<Baggage> received = Baggage::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  h0 = hits.value();
  m0 = misses.value();
  EXPECT_EQ((*received).Serialize(), wire);
  EXPECT_EQ(hits.value(), h0 + 2);
  EXPECT_EQ(misses.value(), m0);

  // Packing dirties only the active instance: the next serialize re-encodes
  // it (one miss) while frozen instances still serve cached bytes.
  Baggage mutated = std::move(received).value();
  mutated.Pack(7, BagSpec::All(), T("c", 3));
  h0 = hits.value();
  m0 = misses.value();
  std::vector<uint8_t> wire2 = mutated.Serialize();
  EXPECT_NE(wire2, wire);
  EXPECT_EQ(misses.value(), m0 + 1);
  EXPECT_EQ(hits.value(), h0 + 1);
}

// SerializeStats attributes every bag's bytes and tuples to its query, and
// the shares plus framing add up to the serialized size. Attribution must not
// depend on where an instance's bytes came from: a received baggage (bytes
// copied from the wire) reports exactly what the sender reported.
TEST(BaggageTest, SerializeStatsAttributionSurvivesWireRoundTrip) {
  const BagKey q1 = 1 * kBagKeysPerQuery;
  const BagKey q2 = 2 * kBagKeysPerQuery;
  Baggage b;
  b.Pack(q1, BagSpec::All(), T("a", 1));
  b.Pack(q2, BagSpec::First(2), T("b", 2));
  auto [left, right] = b.Split();  // Freezes one instance holding both bags.
  Baggage sender = std::move(left);
  sender.Pack(q1, BagSpec::All(), T("a", 3));
  sender.Pack(q2 + 1, BagSpec::Aggregated({}, {{AggFn::kSum, "c", "SUM(c)", false}}),
              T("c", 4));

  // Framing: the instance count, then each instance's gen, id and bag count
  // (all one-byte varints here).
  auto id_bytes = [](const ItcId& id) {
    std::vector<uint8_t> buf;
    id.Encode(&buf);
    return buf.size();
  };
  const uint64_t framing = 1 + (2 + id_bytes(sender.active_id())) + (2 + id_bytes(b.active_id()));

  Baggage::SerializeStats sent;
  std::vector<uint8_t> wire = sender.Serialize(&sent);
  Result<Baggage> received = Baggage::Deserialize(wire);
  ASSERT_TRUE(received.ok());
  Baggage::SerializeStats resent;
  EXPECT_EQ((*received).Serialize(&resent), wire);

  for (const Baggage::SerializeStats* stats : {&sent, &resent}) {
    EXPECT_EQ(stats->bytes, wire.size());
    EXPECT_EQ(stats->tuples, 4u);
    EXPECT_EQ(stats->instances, 2u);
    ASSERT_EQ(stats->queries.size(), 2u);
    EXPECT_EQ(stats->queries.at(1).tuples, 2u);
    EXPECT_EQ(stats->queries.at(2).tuples, 2u);
    uint64_t shares = 0;
    for (const auto& [query, share] : stats->queries) {
      shares += share.bytes;
    }
    EXPECT_EQ(shares + framing, wire.size());
  }
  EXPECT_EQ(resent.queries.at(1).bytes, sent.queries.at(1).bytes);
  EXPECT_EQ(resent.queries.at(2).bytes, sent.queries.at(2).bytes);
}


// ---------------------------------------------------------------------------
// Pinned wire sizes. These byte counts are what wire_bytes_per_req and Fig 10
// measure; a codec change must keep them unless it means to move them.
//
// Framing of a one-instance baggage is 4 bytes: instance count, gen, the
// seed ITC id and the bag count. A retention bag spec is 4 bytes (semantics,
// limit, empty group list, empty aggregate list); a key below 128 and the
// dropped count take one byte each. A one-tuple bag's contents cost 2 bytes
// plus each field's name and value.

// Serialized size, checked against SerializeStats: the per-query shares plus
// `framing` must add up to it.
size_t PinnedSize(const Baggage& b, uint64_t framing) {
  Baggage::SerializeStats stats;
  std::vector<uint8_t> wire = b.Serialize(&stats);
  uint64_t shares = 0;
  for (const auto& [query, share] : stats.queries) {
    shares += share.bytes;
  }
  EXPECT_EQ(stats.bytes, wire.size());
  EXPECT_EQ(shares + framing, wire.size());
  Result<Baggage> decoded = Baggage::Deserialize(wire);
  EXPECT_TRUE(decoded.ok());
  if (decoded.ok()) {
    EXPECT_EQ(decoded->Serialize(), wire);
  }
  return wire.size();
}

TEST(BaggageTest, OneTupleBagSizesArePinned) {
  // Field "a" = "xy": name 2 bytes, value 4 (tag, length, 2 chars): 6 bytes.
  // A second field "bb" = "z": name 3, value 3: 6 bytes.
  const Tuple one{{"a", Value("xy")}};
  const Tuple two{{"a", Value("xy")}, {"bb", Value("z")}};
  for (const BagSpec& spec : {BagSpec::All(), BagSpec::First(1), BagSpec::Recent(1)}) {
    Baggage b1;
    b1.Pack(1, spec, one);
    EXPECT_EQ(PinnedSize(b1, 4), 4u + (1 + 4 + 2 + 6 + 1));
    Baggage b2;
    b2.Pack(1, spec, two);
    EXPECT_EQ(PinnedSize(b2, 4), 4u + (1 + 4 + 2 + 12 + 1));
  }
}

TEST(BaggageTest, OneGroupAggregateBagSizeIsPinned) {
  // Spec: semantics, limit, ["g"] (3 bytes), [SUM v -> S] (1 + fn + from_state
  // + "v" 2 + "S" 2 = 7 bytes): 12 bytes. Contents: g = "a" (2 + 3) and
  // S = 5 (2 + 2), plus 2: 11 bytes.
  Baggage b;
  b.Pack(1, BagSpec::Aggregated({"g"}, {{AggFn::kSum, "v", "S", false}}),
         Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  EXPECT_EQ(PinnedSize(b, 4), 4u + (1 + 12 + 11 + 1));
}

TEST(BaggageTest, Q2AndQ7ShapedBaggageSizeIsPinned) {
  // Q2 packs First(cl.procName); Q7 packs st.host into one kAll bag, then
  // (st.host, getloc.replicas) into its second stage. Query ids of 2 and 7
  // make two-byte keys.
  const BagKey q2 = 2 * kBagKeysPerQuery;
  const BagKey q7 = 7 * kBagKeysPerQuery;
  Baggage b;
  b.Pack(q2, BagSpec::First(), Tuple{{"cl.procName", Value("DFSClient")}});
  b.Pack(q7, BagSpec::All(), Tuple{{"st.host", Value("host-3")}});
  b.Pack(q7 + 1, BagSpec::All(),
         Tuple{{"st.host", Value("host-3")}, {"getloc.replicas", Value(int64_t{3})}});
  // cl.procName: name 12 + value 11. st.host: name 8 + value 8.
  // getloc.replicas: name 16 + value 2.
  const size_t q2_bag = 2 + 4 + 2 + (12 + 11) + 1;
  const size_t q7_bag0 = 2 + 4 + 2 + (8 + 8) + 1;
  const size_t q7_bag1 = 2 + 4 + 2 + (8 + 8) + (16 + 2) + 1;
  EXPECT_EQ(PinnedSize(b, 4), 4 + q2_bag + q7_bag0 + q7_bag1);
}


TEST(BaggageTest, MultiTupleBagWritesNamesOnce) {
  // Every tuple after the first costs only its values (4 + 3 bytes): the
  // bag's rows are dense under one name table.
  const Tuple t{{"a", Value("xy")}, {"bb", Value("z")}};
  Baggage one;
  Baggage five;
  one.Pack(1, BagSpec::All(), t);
  for (int i = 0; i < 5; ++i) {
    five.Pack(1, BagSpec::All(), t);
  }
  EXPECT_EQ(five.Serialize().size(), one.Serialize().size() + 4 * (4 + 3));
  Result<Baggage> decoded = Baggage::Deserialize(five.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(UnpackCopy(*decoded, 1), UnpackCopy(five, 1));
}

TEST(BaggageTest, AggregateBagDecodeInternsNothing) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  Baggage b;
  b.Pack(1, BagSpec::Aggregated({"bagtest.g"}, {{AggFn::kSum, "bagtest.v", "bagtest.sum", false}}),
         Tuple{{"bagtest.g", Value("a")}, {"bagtest.v", Value(int64_t{5})}});
  const std::vector<uint8_t> wire = b.Serialize();
  const size_t symbols = SymbolTable::Global().size();
  const uint64_t errors_before = errors.value();
  for (int i = 0; i < 3; ++i) {
    Result<Baggage> decoded = Baggage::Deserialize(wire);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(UnpackCopy(*decoded, 1), UnpackCopy(b, 1));
  }
  EXPECT_EQ(SymbolTable::Global().size(), symbols);

  // The state name table follows the spec; rename its "bagtest.sum" entry to
  // a name nothing has interned. The table no longer matches the spec's
  // state columns, so the bag is rejected, counted, and the name never
  // reaches the symbol table.
  const std::string sum = "bagtest.sum";
  auto at = std::find_end(wire.begin(), wire.end(), sum.begin(), sum.end());
  ASSERT_NE(at, wire.end());
  std::vector<uint8_t> renamed = wire;
  renamed[static_cast<size_t>(at - wire.begin()) + sum.size() - 1] = 'Q';
  EXPECT_FALSE(Baggage::Deserialize(renamed).ok());
  EXPECT_EQ(errors.value(), errors_before + 1);
  EXPECT_EQ(SymbolTable::Global().size(), symbols);
  EXPECT_EQ(SymbolTable::Global().Find("bagtest.suQ"), kInvalidSymbol);
}

// A one-bag baggage's bytes: [instance count][gen][seed id][bag count][key]
// [semantics]..., so the spec's semantics is byte 5.
constexpr size_t kSemanticsByte = 5;

// A bag spec's semantics and plan must agree: kAggregate needs a plan, and a
// retention semantics has none. The compiler never emits either mismatch, so
// a peer's baggage carrying one is rejected and counted.
TEST(BaggageTest, BagSpecWhoseSemanticsAndPlanDisagreeIsRejected) {
  const ResultPlan sum_by_g{{"g"}, {{AggFn::kSum, "v", "S", false}}};
  for (const BagSpec& spec : {BagSpec{PackSemantics::kAggregate, 0, {}},
                              BagSpec{PackSemantics::kAll, 0, sum_by_g},
                              BagSpec{PackSemantics::kFirstN, 1, ResultPlan{{"g"}, {}}}}) {
    std::vector<uint8_t> bytes;
    PutBagSpec(&bytes, spec);
    size_t pos = 0;
    BagSpec decoded;
    EXPECT_FALSE(GetBagSpec(bytes.data(), bytes.size(), &pos, &decoded));
  }

  // The same mismatches inside baggage: flip the semantics byte of a First
  // bag to kAggregate, and of an aggregate bag to kAll.
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  Baggage first;
  first.Pack(1, BagSpec::First(1), T("x", 1));
  Baggage aggregate;
  aggregate.Pack(1, BagSpec::Aggregated(sum_by_g.group_fields, sum_by_g.aggs),
                 Tuple{{"g", Value("a")}, {"v", Value(int64_t{5})}});
  std::vector<uint8_t> no_plan = first.Serialize();
  std::vector<uint8_t> retained_plan = aggregate.Serialize();
  ASSERT_EQ(no_plan[kSemanticsByte], static_cast<uint8_t>(PackSemantics::kFirstN));
  ASSERT_EQ(retained_plan[kSemanticsByte], static_cast<uint8_t>(PackSemantics::kAggregate));
  no_plan[kSemanticsByte] = static_cast<uint8_t>(PackSemantics::kAggregate);
  retained_plan[kSemanticsByte] = static_cast<uint8_t>(PackSemantics::kAll);
  const uint64_t errors_before = errors.value();
  EXPECT_FALSE(Baggage::Deserialize(no_plan).ok());
  EXPECT_FALSE(Baggage::Deserialize(retained_plan).ok());
  EXPECT_EQ(errors.value(), errors_before + 2);
}

// The encoder writes each bag key of an instance once; a peer's instance
// that repeats one is malformed.
TEST(BaggageTest, RepeatedBagKeyIsRejected) {
  telemetry::Counter& errors = telemetry::Metrics().GetCounter("baggage.deserialize.errors");
  Baggage b;
  b.Pack(1, BagSpec::First(1), T("x", 1));
  const std::vector<uint8_t> wire = b.Serialize();
  constexpr size_t kBagCountByte = 3;  // [instance count][gen][seed id][bag count]
  ASSERT_EQ(wire[kBagCountByte], 1);
  std::vector<uint8_t> repeated(wire.begin(), wire.end());
  repeated[kBagCountByte] = 2;
  repeated.insert(repeated.end(), wire.begin() + kBagCountByte + 1, wire.end());
  const uint64_t errors_before = errors.value();
  EXPECT_FALSE(Baggage::Deserialize(repeated).ok());
  EXPECT_EQ(errors.value(), errors_before + 1);
}

}  // namespace
}  // namespace pivot
