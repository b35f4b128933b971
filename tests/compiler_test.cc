#include <gtest/gtest.h>

#include "src/query/compiler.h"
#include "src/query/parser.h"
#include "tests/test_util.h"

namespace pivot {
namespace {

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

class CompilerTest : public ::testing::Test {
 protected:
  CompilerTest() {
    for (const auto& [name, exports] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"DataNodeMetrics.incrBytesRead", {"delta"}},
             {"ClientProtocols", {"procName", "system"}},
             {"DN.DataTransferProtocol", {"op", "src"}},
             {"NN.GetBlockLocations", {"src", "replicas"}},
             {"StressTest.DoNextOp", {"op"}},
             {"SendResponse", {}},
             {"ReceiveRequest", {}},
             {"JobComplete", {"id"}},
             {"A", {"x", "y"}},
             {"B", {"x", "y"}},
             {"C", {"x", "y"}}}) {
      EXPECT_TRUE(registry_.Define(Def(name, exports)).ok());
    }
  }

  Result<CompiledQuery> Compile(const std::string& text, uint64_t id = 1) {
    Result<Query> q = ParseQuery(text);
    if (!q.ok()) {
      return q.status();
    }
    QueryCompiler compiler(&registry_, &named_);
    return compiler.Compile(*q, id);
  }

  TracepointRegistry registry_;
  QueryRegistry named_;
};

// Finds the advice compiled for a tracepoint, or nullptr.
const Advice* AdviceAt(const CompiledQuery& cq, const std::string& tp) {
  for (const auto& [name, adv] : cq.advice) {
    if (name == tp) {
      return adv.get();
    }
  }
  return nullptr;
}

bool HasOp(const Advice& advice, Advice::OpKind kind) {
  for (const auto& op : advice.ops()) {
    if (op.kind == kind) {
      return true;
    }
  }
  return false;
}

TEST_F(CompilerTest, Q1SingleStageAggregation) {
  auto cq = Compile(
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select incr.host, SUM(incr.delta)");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_EQ(cq->advice.size(), 1u);
  EXPECT_EQ(cq->advice[0].first, "DataNodeMetrics.incrBytesRead");
  const Advice& advice = *cq->advice[0].second;
  EXPECT_TRUE(HasOp(advice, Advice::OpKind::kObserve));
  EXPECT_TRUE(HasOp(advice, Advice::OpKind::kEmit));
  EXPECT_FALSE(HasOp(advice, Advice::OpKind::kPack));
  EXPECT_FALSE(HasOp(advice, Advice::OpKind::kUnpack));
  EXPECT_TRUE(cq->plan.aggregated());
  EXPECT_EQ(cq->plan.group_fields, (std::vector<std::string>{"incr.host"}));
  ASSERT_EQ(cq->plan.aggs.size(), 1u);
  EXPECT_EQ(cq->plan.aggs[0].fn, AggFn::kSum);
  EXPECT_EQ(cq->plan.aggs[0].input, "incr.delta");
}

TEST_F(CompilerTest, Q2PacksAtClientProtocolsAndUnpacksAtDataNode) {
  auto cq = Compile(
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  ASSERT_EQ(cq->advice.size(), 2u);

  const Advice* pack_side = AdviceAt(*cq, "ClientProtocols");
  ASSERT_NE(pack_side, nullptr);
  EXPECT_TRUE(HasOp(*pack_side, Advice::OpKind::kPack));
  EXPECT_FALSE(HasOp(*pack_side, Advice::OpKind::kEmit));
  // Projection pushdown: only procName is packed, with FIRST semantics.
  for (const auto& op : pack_side->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      EXPECT_EQ(op.bag_spec.semantics, PackSemantics::kFirstN);
      EXPECT_EQ(op.bag_spec.limit, 1u);
      EXPECT_EQ(op.fields, (std::vector<std::string>{"cl.procName"}));
    }
  }

  const Advice* emit_side = AdviceAt(*cq, "DataNodeMetrics.incrBytesRead");
  ASSERT_NE(emit_side, nullptr);
  EXPECT_TRUE(HasOp(*emit_side, Advice::OpKind::kUnpack));
  EXPECT_TRUE(HasOp(*emit_side, Advice::OpKind::kEmit));
}

TEST_F(CompilerTest, Q7ChainsPackThroughIntermediateStage) {
  auto cq = Compile(
      "From DNop In DN.DataTransferProtocol "
      "Join getloc In NN.GetBlockLocations On getloc -> DNop "
      "Join st In StressTest.DoNextOp On st -> getloc "
      "Where st.host != DNop.host "
      "GroupBy DNop.host, getloc.replicas "
      "Select DNop.host, getloc.replicas, COUNT");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  // st packs; getloc unpacks st's bag and packs the combination; DNop unpacks
  // getloc's bag, filters, emits.
  const Advice* st = AdviceAt(*cq, "StressTest.DoNextOp");
  ASSERT_NE(st, nullptr);
  EXPECT_TRUE(HasOp(*st, Advice::OpKind::kPack));
  EXPECT_FALSE(HasOp(*st, Advice::OpKind::kUnpack));

  const Advice* getloc = AdviceAt(*cq, "NN.GetBlockLocations");
  ASSERT_NE(getloc, nullptr);
  EXPECT_TRUE(HasOp(*getloc, Advice::OpKind::kUnpack));
  EXPECT_TRUE(HasOp(*getloc, Advice::OpKind::kPack));

  const Advice* dnop = AdviceAt(*cq, "DN.DataTransferProtocol");
  ASSERT_NE(dnop, nullptr);
  EXPECT_TRUE(HasOp(*dnop, Advice::OpKind::kUnpack));
  EXPECT_TRUE(HasOp(*dnop, Advice::OpKind::kFilter));
  EXPECT_TRUE(HasOp(*dnop, Advice::OpKind::kEmit));

  // getloc packs st.host through (needed by the Where at DNop).
  for (const auto& op : getloc->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      EXPECT_NE(std::find(op.fields.begin(), op.fields.end(), "st.host"), op.fields.end());
      EXPECT_NE(std::find(op.fields.begin(), op.fields.end(), "getloc.replicas"),
                op.fields.end());
    }
  }
}

TEST_F(CompilerTest, SelectionPushdownRunsWhereAtEarliestStage) {
  auto cq = Compile(
      "From b In B Join a In A On a -> b Where a.x == 1 Select b.y");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  const Advice* a_side = AdviceAt(*cq, "A");
  ASSERT_NE(a_side, nullptr);
  EXPECT_TRUE(HasOp(*a_side, Advice::OpKind::kFilter));
  const Advice* b_side = AdviceAt(*cq, "B");
  ASSERT_NE(b_side, nullptr);
  EXPECT_FALSE(HasOp(*b_side, Advice::OpKind::kFilter));
}

TEST_F(CompilerTest, SelectionPushdownDisabledRunsWhereAtFinalStage) {
  Result<Query> q = ParseQuery("From b In B Join a In A On a -> b Where a.x == 1 Select b.y");
  ASSERT_TRUE(q.ok());
  QueryCompiler compiler(&registry_, &named_, {.pushdown = false});
  auto cq = compiler.Compile(*q, 1);
  ASSERT_TRUE(cq.ok());
  const Advice* a_side = AdviceAt(*cq, "A");
  EXPECT_FALSE(HasOp(*a_side, Advice::OpKind::kFilter));
  const Advice* b_side = AdviceAt(*cq, "B");
  EXPECT_TRUE(HasOp(*b_side, Advice::OpKind::kFilter));
}

TEST_F(CompilerTest, ProjectionPushdownDisabledPacksEverything) {
  std::string text =
      "From b In B Join a In A On a -> b GroupBy a.x Select a.x, SUM(b.y)";
  Result<Query> q = ParseQuery(text);
  ASSERT_TRUE(q.ok());

  QueryCompiler::Options narrow;
  QueryCompiler::Options wide{.pushdown = false};
  auto count_pack_fields = [&](const QueryCompiler::Options& opt) {
    QueryCompiler compiler(&registry_, &named_, opt);
    auto cq = compiler.Compile(*q, 1);
    EXPECT_TRUE(cq.ok());
    size_t n = 0;
    for (const auto& [tp, adv] : cq->advice) {
      for (const auto& op : adv->ops()) {
        if (op.kind == Advice::OpKind::kPack) {
          n += op.fields.size();
        }
      }
    }
    return n;
  };
  EXPECT_LT(count_pack_fields(narrow), count_pack_fields(wide));
}

TEST_F(CompilerTest, AggregationPushdownPacksState) {
  // SUM over the packed source's column: Table 3's A_p rule applies.
  auto cq = Compile("From b In B Join a In A On a -> b Select SUM(a.x)");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  const Advice* a_side = AdviceAt(*cq, "A");
  ASSERT_NE(a_side, nullptr);
  bool packed_aggregated = false;
  for (const auto& op : a_side->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      packed_aggregated = op.bag_spec.semantics == PackSemantics::kAggregate;
    }
  }
  EXPECT_TRUE(packed_aggregated);
  ASSERT_EQ(cq->plan.aggs.size(), 1u);
  EXPECT_TRUE(cq->plan.aggs[0].from_state);
}

TEST_F(CompilerTest, AggregationPushdownBlockedByCount) {
  // COUNT's multiplicity depends on the uncollapsed join; no pushdown.
  auto cq = Compile("From b In B Join a In A On a -> b Select SUM(a.x), COUNT");
  ASSERT_TRUE(cq.ok());
  const Advice* a_side = AdviceAt(*cq, "A");
  for (const auto& op : a_side->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      EXPECT_NE(op.bag_spec.semantics, PackSemantics::kAggregate);
    }
  }
  for (const auto& spec : cq->plan.aggs) {
    EXPECT_FALSE(spec.from_state);
  }
}

TEST_F(CompilerTest, AggregationPushdownBlockedByNonGroupUse) {
  // a.y is needed raw by the Where at the final stage; a cannot collapse.
  auto cq = Compile(
      "From b In B Join a In A On a -> b Where a.y != b.y Select SUM(a.x)");
  ASSERT_TRUE(cq.ok());
  const Advice* a_side = AdviceAt(*cq, "A");
  for (const auto& op : a_side->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      EXPECT_NE(op.bag_spec.semantics, PackSemantics::kAggregate);
    }
  }
}

TEST_F(CompilerTest, Q8StreamingWithComputedColumn) {
  auto cq = Compile(
      "From response In SendResponse "
      "Join request In MostRecent(ReceiveRequest) On request -> response "
      "Select response.time - request.time");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_FALSE(cq->plan.aggregated());
  const Advice* pack_side = AdviceAt(*cq, "ReceiveRequest");
  ASSERT_NE(pack_side, nullptr);
  for (const auto& op : pack_side->ops()) {
    if (op.kind == Advice::OpKind::kPack) {
      EXPECT_EQ(op.bag_spec.semantics, PackSemantics::kRecentN);
      EXPECT_EQ(op.bag_spec.limit, 1u);
    }
  }
  const Advice* emit_side = AdviceAt(*cq, "SendResponse");
  ASSERT_NE(emit_side, nullptr);
  EXPECT_TRUE(HasOp(*emit_side, Advice::OpKind::kLet));
}

TEST_F(CompilerTest, Q9SubqueryInlines) {
  ASSERT_TRUE(named_
                  .Register("Q8", *ParseQuery("From response In SendResponse "
                                              "Join request In MostRecent(ReceiveRequest) "
                                              "On request -> response "
                                              "Select response.time - request.time"))
                  .ok());
  auto cq = Compile(
      "From job In JobComplete "
      "Join latencyMeasurement In Q8 On latencyMeasurement -> job "
      "GroupBy job.id Select job.id, AVERAGE(latencyMeasurement)");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  // Three tracepoints are woven: ReceiveRequest, SendResponse, JobComplete.
  EXPECT_EQ(cq->advice.size(), 3u);
  EXPECT_NE(AdviceAt(*cq, "ReceiveRequest"), nullptr);
  EXPECT_NE(AdviceAt(*cq, "SendResponse"), nullptr);
  EXPECT_NE(AdviceAt(*cq, "JobComplete"), nullptr);
  ASSERT_EQ(cq->plan.aggs.size(), 1u);
  EXPECT_EQ(cq->plan.aggs[0].fn, AggFn::kAverage);
}

TEST_F(CompilerTest, UnionSourceWeavesAllTracepoints) {
  auto cq = Compile("From e In A, B GroupBy e.host Select e.host, COUNT");
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_EQ(cq->advice.size(), 2u);
  EXPECT_NE(AdviceAt(*cq, "A"), nullptr);
  EXPECT_NE(AdviceAt(*cq, "B"), nullptr);
}

TEST_F(CompilerTest, ExplainListsAdvice) {
  auto cq = Compile(
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)");
  ASSERT_TRUE(cq.ok());
  std::string explain = cq->Explain();
  EXPECT_NE(explain.find("ClientProtocols"), std::string::npos);
  EXPECT_NE(explain.find("PACK-FIRST"), std::string::npos);
  EXPECT_NE(explain.find("UNPACK"), std::string::npos);
  EXPECT_NE(explain.find("SUM(incr.delta)"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Validation errors

TEST_F(CompilerTest, UnknownTracepointRejected) {
  auto cq = Compile("From e In NoSuchTracepoint Select e.host");
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kNotFound);
}

TEST_F(CompilerTest, UnknownExportRejected) {
  auto cq = Compile("From e In A Select e.nonexistent");
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CompilerTest, UnknownAliasInOnClauseRejected) {
  auto cq = Compile("From b In B Join a In A On zz -> b Select b.x");
  EXPECT_FALSE(cq.ok());
}

TEST_F(CompilerTest, CycleRejected) {
  auto cq = Compile("From c In C Join a In A On a -> b Join b In B On b -> a Select c.x");
  EXPECT_FALSE(cq.ok());
}

TEST_F(CompilerTest, FromMustBeLatest) {
  auto cq = Compile("From a In A Join b In B On a -> b Select a.x");
  ASSERT_FALSE(cq.ok());
}

TEST_F(CompilerTest, DisconnectedJoinRejected) {
  // b is joined but never ordered before anything.
  auto cq = Compile("From c In C Join a In A On a -> c Join b In B On a -> b Select c.x");
  EXPECT_FALSE(cq.ok());
}

TEST_F(CompilerTest, NonGroupedSelectFieldRejected) {
  auto cq = Compile("From e In A GroupBy e.x Select e.y, COUNT");
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(CompilerTest, DuplicateAliasRejected) {
  auto cq = Compile("From a In A Join a In B On a -> a Select a.x");
  EXPECT_FALSE(cq.ok());
}

TEST_F(CompilerTest, UnknownSubqueryRejected) {
  Result<Query> q = ParseQuery("From j In JobComplete Join m In QX On m -> j Select j.id");
  ASSERT_TRUE(q.ok());
  QueryCompiler compiler(&registry_, &named_);
  auto cq = compiler.Compile(*q, 1);
  // "QX" is neither a tracepoint nor a registered query.
  EXPECT_FALSE(cq.ok());
}

}  // namespace
}  // namespace pivot
