// AdviceVerifier + QueryLinter: the static-analysis gate (docs/ANALYSIS.md).
//
// The heart of this file is a table-driven corpus of minimal bad programs,
// one (or more) per diagnostic code, each asserting exactly the code it is
// built to trigger — plus a good corpus proving every paper-style query lints
// clean (the gate must not reject the workloads the repo exists to run).

#include <gtest/gtest.h>

#include <functional>

#include "src/analysis/advice_verifier.h"
#include "src/analysis/query_linter.h"
#include "src/core/advice.h"
#include "src/core/advice_io.h"
#include "src/query/compiler.h"
#include "src/query/parser.h"

namespace pivot {
namespace {

using analysis::AdviceVerifier;
using analysis::BagColumns;
using analysis::BaggageCost;
using analysis::JoinStaticTypes;
using analysis::LintOptions;
using analysis::LiveBag;
using analysis::LiveBags;
using analysis::QueryLinter;
using analysis::QueryLintResult;
using analysis::Report;
using analysis::Severity;
using analysis::StaticType;
using analysis::VerifyContext;
using analysis::VerifyResult;

TracepointDef Def(const std::string& name, std::vector<std::string> exports) {
  TracepointDef def;
  def.name = name;
  def.exports = std::move(exports);
  return def;
}

Expr::Ptr Lit(int64_t v) { return Expr::Literal(Value(v)); }
Expr::Ptr Field(const std::string& name) { return Expr::Field(name); }
Expr::Ptr Bin(ExprOp op, Expr::Ptr l, Expr::Ptr r) {
  return Expr::Binary(op, std::move(l), std::move(r));
}

// ---------------------------------------------------------------------------
// Type lattice

TEST(StaticTypeTest, JoinIsLeastUpperBound) {
  EXPECT_EQ(JoinStaticTypes(StaticType::kInt, StaticType::kInt), StaticType::kInt);
  EXPECT_EQ(JoinStaticTypes(StaticType::kInt, StaticType::kDouble), StaticType::kDouble);
  EXPECT_EQ(JoinStaticTypes(StaticType::kDouble, StaticType::kInt), StaticType::kDouble);
  EXPECT_EQ(JoinStaticTypes(StaticType::kNull, StaticType::kString), StaticType::kString);
  EXPECT_EQ(JoinStaticTypes(StaticType::kString, StaticType::kNull), StaticType::kString);
  EXPECT_EQ(JoinStaticTypes(StaticType::kInt, StaticType::kString), StaticType::kUnknown);
  EXPECT_EQ(JoinStaticTypes(StaticType::kUnknown, StaticType::kInt), StaticType::kUnknown);
}

TEST(StaticTypeTest, InferExprTypeFollowsRuntimePromotion) {
  std::map<std::string, StaticType> env{{"i", StaticType::kInt},
                                        {"d", StaticType::kDouble},
                                        {"s", StaticType::kString}};
  Report report;
  auto infer = [&](Expr::Ptr e) {
    return analysis::InferExprType(*e, env, &report, "tp", 0);
  };
  EXPECT_EQ(infer(Bin(ExprOp::kAdd, Field("i"), Lit(1))), StaticType::kInt);
  EXPECT_EQ(infer(Bin(ExprOp::kAdd, Field("i"), Field("d"))), StaticType::kDouble);
  EXPECT_EQ(infer(Bin(ExprOp::kAdd, Field("s"), Field("s"))), StaticType::kString);
  EXPECT_EQ(infer(Bin(ExprOp::kDiv, Field("i"), Lit(2))), StaticType::kInt);
  EXPECT_EQ(infer(Bin(ExprOp::kLt, Field("i"), Field("d"))), StaticType::kInt);
  EXPECT_TRUE(report.empty()) << report.ToString();
  // The runtime evaluator agrees on int/int division.
  EXPECT_EQ(ValueDiv(Value(int64_t{7}), Value(int64_t{2})).type(), ValueType::kInt);
}

// ---------------------------------------------------------------------------
// Table-driven bad-program corpus

struct BadProgram {
  const char* name;
  const char* expect_code;
  Severity expect_severity;
  // Builds the full query handed to the linter.
  std::function<CompiledQuery()> build;
};

constexpr uint64_t kQid = 3;
constexpr BagKey kBag = kQid * kBagKeysPerQuery;

CompiledQuery Single(Advice::Ptr advice) {
  CompiledQuery cq;
  cq.query_id = kQid;
  cq.advice.emplace_back("tp", std::move(advice));
  return cq;
}

class BadProgramTest : public ::testing::Test {
 protected:
  BadProgramTest() {
    EXPECT_TRUE(schema_.Define(Def("tp", {"x", "s"})).ok());
    EXPECT_TRUE(schema_.Define(Def("tp2", {"y"})).ok());
  }

  QueryLintResult Lint(const CompiledQuery& cq) {
    LintOptions options;
    options.schema = &schema_;
    return QueryLinter(options).Lint(cq.query_id, cq.advice, cq.plan);
  }

  TracepointRegistry schema_;
};

TEST_F(BadProgramTest, CorpusTriggersExpectedDiagnostics) {
  std::vector<BadProgram> corpus;

  corpus.push_back({"empty program", "PT101", Severity::kError,
                    [] { return Single(AdviceBuilder().Build()); }});

  corpus.push_back({"expression reads unknown column", "PT102", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Let("y", Bin(ExprOp::kAdd, Field("t.missing"), Lit(1)))
                                        .Emit(kQid, {"y"})
                                        .Build());
                    }});

  corpus.push_back({"emit of unknown column", "PT102", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kQid, {"t.x", "t.ghost"})
                                        .Build());
                    }});

  corpus.push_back({"string arithmetic", "PT103", Severity::kError, [] {
                      // procname is a default export with definite string type.
                      return Single(AdviceBuilder()
                                        .Observe({{"procname", "t.p"}})
                                        .Let("n", Bin(ExprOp::kSub, Field("t.p"), Lit(1)))
                                        .Emit(kQid, {"n"})
                                        .Build());
                    }});

  corpus.push_back({"string/number ordering comparison", "PT103", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"host", "t.h"}})
                                        .Filter(Bin(ExprOp::kGt, Field("t.h"), Lit(10)))
                                        .Emit(kQid, {"t.h"})
                                        .Build());
                    }});

  corpus.push_back({"zero sample rate", "PT104", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Sample(0.0)
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"sample rate above one", "PT104", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Sample(2.0)
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"observe of undeclared export", "PT105", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"no_such_export", "t.n"}})
                                        .Emit(kQid, {"t.n"})
                                        .Build());
                    }});

  corpus.push_back({"unpack of never-packed bag", "PT106", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Unpack(kBag + 5)
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"duplicate observe output", "PT107", Severity::kWarning, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}, {"s", "t.x"}})
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"no pack and no emit", "PT108", Severity::kWarning, [] {
                      return Single(AdviceBuilder().Observe({{"x", "t.x"}}).Build());
                    }});

  corpus.push_back({"constant filter predicate", "PT109", Severity::kWarning, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Filter(Bin(ExprOp::kEq, Lit(1), Lit(1)))
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"division by literal zero", "PT110", Severity::kWarning, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Let("y", Bin(ExprOp::kDiv, Field("t.x"), Lit(0)))
                                        .Emit(kQid, {"y"})
                                        .Build());
                    }});

  corpus.push_back({"let rebinds live column", "PT111", Severity::kWarning, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Let("t.x", Bin(ExprOp::kAdd, Field("t.x"), Lit(1)))
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"sample after other ops", "PT112", Severity::kInfo, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Sample(0.5)
                                        .Emit(kQid, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"emit to foreign query", "PT201", Severity::kError, [] {
                      return Single(AdviceBuilder()
                                        .Observe({{"x", "t.x"}})
                                        .Emit(kQid + 1, {"t.x"})
                                        .Build());
                    }});

  corpus.push_back({"pack/unpack cycle", "PT202", Severity::kError, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Unpack(kBag + 1)
                                                       .Pack(kBag, BagSpec::First(), {})
                                                       .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Unpack(kBag)
                                                        .Pack(kBag + 1, BagSpec::First(), {})
                                                        .Build());
                      return cq;
                    }});

  corpus.push_back({"bag outside owner's key range", "PT204", Severity::kWarning, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      BagKey foreign = (kQid + 2) * kBagKeysPerQuery;
                      cq.advice.emplace_back(
                          "tp", AdviceBuilder()
                                    .Observe({{"x", "a.x"}})
                                    .Pack(foreign, BagSpec::First(), {"a.x"})
                                    .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Unpack(foreign)
                                                        .Observe({{"y", "b.y"}})
                                                        .Emit(kQid, {"a.x", "b.y"})
                                                        .Build());
                      return cq;
                    }});

  corpus.push_back({"conflicting bag specs", "PT205", Severity::kError, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Observe({{"x", "a.x"}})
                                                       .Pack(kBag, BagSpec::First(), {"a.x"})
                                                       .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Observe({{"y", "b.y"}})
                                                        .Pack(kBag, BagSpec::Recent(3), {"b.y"})
                                                        .Build());
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Unpack(kBag)
                                                       .Observe({{"x", "c.x"}})
                                                       .Emit(kQid, {"c.x"})
                                                       .Build());
                      return cq;
                    }});

  corpus.push_back({"packers project different columns", "PT205", Severity::kError, [] {
                      // One spec, but the bag's values travel by position:
                      // a.x from one stage and b.y from the other would land
                      // in the same column.
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Observe({{"x", "a.x"}})
                                                       .Pack(kBag, BagSpec::First(), {"a.x"})
                                                       .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Observe({{"y", "b.y"}})
                                                        .Pack(kBag, BagSpec::First(), {"b.y"})
                                                        .Build());
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Unpack(kBag)
                                                       .Observe({{"x", "c.x"}})
                                                       .Emit(kQid, {"c.x"})
                                                       .Build());
                      return cq;
                    }});

  corpus.push_back({"plan consumes never-emitted column", "PT206", Severity::kError, [] {
                      CompiledQuery cq = Single(AdviceBuilder()
                                                    .Observe({{"x", "t.x"}})
                                                    .Emit(kQid, {"t.x"})
                                                    .Build());
                      cq.plan.group_fields = {"t.ghost"};
                      cq.plan.aggs.push_back(AggSpec{AggFn::kCount, "", "COUNT", false});
                      return cq;
                    }});

  corpus.push_back({"dead packed column", "PT207", Severity::kWarning, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back(
                          "tp", AdviceBuilder()
                                    .Observe({{"x", "a.x"}, {"s", "a.s"}})
                                    .Pack(kBag, BagSpec::First(), {"a.x", "a.s"})
                                    .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Unpack(kBag)
                                                        .Observe({{"y", "b.y"}})
                                                        .Emit(kQid, {"a.x", "b.y"})
                                                        .Build());
                      return cq;  // a.s is packed but nobody reads it.
                    }});

  corpus.push_back({"unbounded pack", "PT208", Severity::kInfo, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Observe({{"x", "a.x"}})
                                                       .Pack(kBag, BagSpec::All(), {"a.x"})
                                                       .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Unpack(kBag)
                                                        .Emit(kQid, {"a.x"})
                                                        .Build());
                      return cq;
                    }});

  corpus.push_back({"cartesian unpack of unbounded bags", "PT209", Severity::kInfo, [] {
                      CompiledQuery cq;
                      cq.query_id = kQid;
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Observe({{"x", "a.x"}})
                                                       .Pack(kBag, BagSpec::All(), {"a.x"})
                                                       .Build());
                      cq.advice.emplace_back("tp", AdviceBuilder()
                                                       .Observe({{"x", "b.x"}})
                                                       .Pack(kBag + 1, BagSpec::All(), {"b.x"})
                                                       .Build());
                      cq.advice.emplace_back("tp2", AdviceBuilder()
                                                        .Unpack(kBag)
                                                        .Unpack(kBag + 1)
                                                        .Emit(kQid, {"a.x", "b.x"})
                                                        .Build());
                      return cq;
                    }});

  ASSERT_GE(corpus.size(), 12u);
  std::set<std::string> distinct_codes;
  for (const auto& bad : corpus) {
    QueryLintResult lint = Lint(bad.build());
    ASSERT_TRUE(lint.report.Has(bad.expect_code))
        << bad.name << ": expected " << bad.expect_code << ", got:\n"
        << lint.report.ToString();
    bool severity_matches = false;
    for (const auto& d : lint.report.diagnostics()) {
      if (d.code == bad.expect_code && d.severity == bad.expect_severity) {
        severity_matches = true;
      }
    }
    EXPECT_TRUE(severity_matches)
        << bad.name << ": " << bad.expect_code << " has wrong severity:\n"
        << lint.report.ToString();
    distinct_codes.insert(bad.expect_code);
  }
  // The corpus spans at least 12 distinct diagnostic codes.
  EXPECT_GE(distinct_codes.size(), 12u) << "codes covered: " << distinct_codes.size();
}

TEST_F(BadProgramTest, BagCollisionAcrossInstalledQueries) {
  CompiledQuery cq;
  cq.query_id = kQid;
  cq.advice.emplace_back("tp", AdviceBuilder()
                                   .Observe({{"x", "a.x"}})
                                   .Pack(kBag, BagSpec::First(), {"a.x"})
                                   .Build());
  cq.advice.emplace_back("tp2", AdviceBuilder()
                                    .Unpack(kBag)
                                    .Observe({{"y", "b.y"}})
                                    .Emit(kQid, {"a.x", "b.y"})
                                    .Build());

  // kBag is live, filled by another query's stage that packs a different
  // column: packing it here would merge two different bags into one.
  const std::vector<std::pair<std::string, Advice::Ptr>> other{
      {"tp", AdviceBuilder().Observe({{"y", "a.y"}}).Pack(kBag, BagSpec::First(), {"a.y"}).Build()}};
  LiveBags installed{{kBag, LiveBag{PackStageProgram(other, kBag, {}), {kQid + 10}}}};
  LintOptions options;
  options.schema = &schema_;
  options.installed_bags = &installed;
  QueryLintResult lint = QueryLinter(options).Lint(cq.query_id, cq.advice, cq.plan);
  EXPECT_TRUE(lint.report.Has("PT203")) << lint.report.ToString();

  // The same key filled by an identical pack stage is a shared bag, not a
  // collision.
  installed[kBag].program = PackStageProgram(cq.advice, kBag, {});
  QueryLintResult shared = QueryLinter(options).Lint(cq.query_id, cq.advice, cq.plan);
  EXPECT_FALSE(shared.report.Has("PT203")) << shared.report.ToString();
}

TEST_F(BadProgramTest, LiveKeyWithDifferentBodyOrSpecIsRejected) {
  // Each variant packs the live key kBag with a program that differs from
  // the live stage in one respect: its body, its BagSpec, or its tracepoint.
  auto stage = [](const std::string& tp, Advice::Ptr pack) {
    return std::vector<std::pair<std::string, Advice::Ptr>>{
        {tp, std::move(pack)},
        {"tp2", AdviceBuilder()
                    .Unpack(kBag)
                    .Observe({{"y", "b.y"}})
                    .Emit(kQid, {"a.x", "b.y"})
                    .Build()}};
  };
  auto live = stage("tp", AdviceBuilder()
                              .Observe({{"x", "a.x"}})
                              .Pack(kBag, BagSpec::First(), {"a.x"})
                              .Build());
  LiveBags installed{{kBag, LiveBag{PackStageProgram(live, kBag, {}), {kQid + 10}}}};
  LintOptions options;
  options.schema = &schema_;
  options.installed_bags = &installed;

  const std::vector<std::pair<std::string, std::vector<std::pair<std::string, Advice::Ptr>>>>
      variants{
          {"filtered body", stage("tp", AdviceBuilder()
                                            .Observe({{"x", "a.x"}})
                                            .Filter(Expr::Binary(ExprOp::kGt, Expr::Field("a.x"),
                                                                 Expr::Literal(Value(int64_t{0}))))
                                            .Pack(kBag, BagSpec::First(), {"a.x"})
                                            .Build())},
          {"Recent spec", stage("tp", AdviceBuilder()
                                          .Observe({{"x", "a.x"}})
                                          .Pack(kBag, BagSpec::Recent(1), {"a.x"})
                                          .Build())},
          {"All spec", stage("tp", AdviceBuilder()
                                       .Observe({{"x", "a.x"}})
                                       .Pack(kBag, BagSpec::All(), {"a.x"})
                                       .Build())},
          {"other tracepoint", stage("tp2", AdviceBuilder()
                                                .Observe({{"y", "a.x"}})
                                                .Pack(kBag, BagSpec::First(), {"a.x"})
                                                .Build())},
      };
  for (const auto& [name, advice] : variants) {
    QueryLintResult lint = QueryLinter(options).Lint(kQid, advice, ResultPlan{});
    EXPECT_TRUE(lint.report.Has("PT203")) << name << ":\n" << lint.report.ToString();
  }
  // The live stage itself passes.
  EXPECT_FALSE(QueryLinter(options).Lint(kQid, live, ResultPlan{}).report.Has("PT203"));
}

// ---------------------------------------------------------------------------
// Cross-stage propagation details

TEST_F(BadProgramTest, UnpackedColumnsCarryPackingStageTypes) {
  // Stage 1 packs a definitely-string column; stage 2 does arithmetic on it
  // after the unpack — the type error crosses the bag.
  CompiledQuery cq;
  cq.query_id = kQid;
  cq.advice.emplace_back("tp", AdviceBuilder()
                                   .Observe({{"procname", "a.p"}})
                                   .Pack(kBag, BagSpec::First(), {"a.p"})
                                   .Build());
  cq.advice.emplace_back("tp2", AdviceBuilder()
                                    .Unpack(kBag)
                                    .Let("n", Bin(ExprOp::kMul, Field("a.p"), Lit(2)))
                                    .Emit(kQid, {"n"})
                                    .Build());
  QueryLintResult lint = Lint(cq);
  EXPECT_TRUE(lint.report.Has("PT103")) << lint.report.ToString();
}

TEST_F(BadProgramTest, AggregateBagExposesStateColumns) {
  // An aggregate pack exposes group fields + state columns to the unpacker;
  // reading them is legal, reading anything else is PT102.
  BagSpec agg = BagSpec::Aggregated(
      {"a.host"}, {AggSpec{AggFn::kSum, "a.x", "SUM(a.x)", false}});
  CompiledQuery cq;
  cq.query_id = kQid;
  cq.advice.emplace_back("tp", AdviceBuilder()
                                   .Observe({{"x", "a.x"}, {"host", "a.host"}})
                                   .Pack(kBag, agg, {})
                                   .Build());
  cq.advice.emplace_back("tp2", AdviceBuilder()
                                    .Unpack(kBag)
                                    .Emit(kQid, {"a.host", "SUM(a.x)"})
                                    .Build());
  QueryLintResult ok = Lint(cq);
  EXPECT_FALSE(ok.report.has_errors()) << ok.report.ToString();

  // Reading the raw input column after an aggregate pack is an error: only
  // the state column survives the bag.
  cq.advice.back().second = AdviceBuilder()
                                .Unpack(kBag)
                                .Emit(kQid, {"a.host", "a.x"})
                                .Build();
  QueryLintResult bad = Lint(cq);
  EXPECT_TRUE(bad.report.Has("PT102")) << bad.report.ToString();
}

TEST_F(BadProgramTest, SampledUnboundedPackClassifiesAsUnboundedSampled) {
  auto make = [](double rate) {
    CompiledQuery cq;
    cq.query_id = kQid;
    AdviceBuilder packer;
    if (rate < 1.0) {
      packer.Sample(rate);
    }
    cq.advice.emplace_back("tp", packer.Observe({{"x", "a.x"}})
                                     .Pack(kBag, BagSpec::All(), {"a.x"})
                                     .Build());
    cq.advice.emplace_back("tp2",
                           AdviceBuilder().Unpack(kBag).Emit(kQid, {"a.x"}).Build());
    return cq;
  };
  EXPECT_EQ(Lint(make(1.0)).cost, BaggageCost::kUnbounded);
  EXPECT_EQ(Lint(make(0.1)).cost, BaggageCost::kUnboundedSampled);

  CompiledQuery bounded;
  bounded.query_id = kQid;
  bounded.advice.emplace_back("tp", AdviceBuilder()
                                        .Observe({{"x", "a.x"}})
                                        .Pack(kBag, BagSpec::First(), {"a.x"})
                                        .Build());
  bounded.advice.emplace_back("tp2",
                              AdviceBuilder().Unpack(kBag).Emit(kQid, {"a.x"}).Build());
  EXPECT_EQ(Lint(bounded).cost, BaggageCost::kBounded);
}

// ---------------------------------------------------------------------------
// Good corpus: paper-style queries lint clean end to end

class GoodCorpusTest : public ::testing::Test {
 protected:
  GoodCorpusTest() {
    EXPECT_TRUE(schema_.Define(Def("ClientProtocols", {"procName"})).ok());
    EXPECT_TRUE(schema_.Define(Def("DataNodeMetrics.incrBytesRead", {"delta"})).ok());
    EXPECT_TRUE(schema_.Define(Def("DN.DataTransferProtocol.readBlock", {"blockId"})).ok());
  }

  QueryLintResult LintText(const std::string& text) {
    Result<Query> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text;
    QueryCompiler compiler(&schema_, nullptr);
    Result<CompiledQuery> compiled = compiler.Compile(*q, 9);
    EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
    LintOptions lint_options;
    lint_options.schema = &schema_;
    return QueryLinter(lint_options).Lint(compiled->query_id, compiled->advice, compiled->plan);
  }

  TracepointRegistry schema_;
};

TEST_F(GoodCorpusTest, PaperQueriesLintClean) {
  const char* corpus[] = {
      // Q1: per-host aggregation, no join.
      "From incr In DataNodeMetrics.incrBytesRead GroupBy incr.host "
      "Select incr.host, SUM(incr.delta)",
      // Q2: happened-before join.
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)",
      // Streaming select with arithmetic.
      "From incr In DataNodeMetrics.incrBytesRead Select incr.delta * 2",
      // Where clause + sampling.
      "From incr In Sample(0.5, DataNodeMetrics.incrBytesRead) "
      "Where incr.delta > 100 Select COUNT",
      // Two-hop join chain.
      "From rb In DN.DataTransferProtocol.readBlock "
      "Join incr In First(DataNodeMetrics.incrBytesRead) On incr -> rb "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, COUNT",
  };
  for (const char* text : corpus) {
    QueryLintResult lint = LintText(text);
    EXPECT_EQ(lint.report.error_count(), 0u) << text << "\n" << lint.report.ToString();
    EXPECT_EQ(lint.report.warning_count(), 0u) << text << "\n" << lint.report.ToString();
  }
}

TEST_F(GoodCorpusTest, CompilerRejectsItsOwnOutputOnlyWhenBroken) {
  // The compiler is a pure lowering: it never lints its own output (the
  // install gate and the agent weave do), so a clean query simply compiles.
  QueryCompiler compiler(&schema_, nullptr);
  Result<Query> q = ParseQuery(
      "From incr In DataNodeMetrics.incrBytesRead Select SUM(incr.delta)");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(compiler.Compile(*q, 4).ok());
}

TEST_F(GoodCorpusTest, CountingShadowLintsWithoutDeadColumnNoise) {
  Result<Query> q = ParseQuery(
      "From incr In DataNodeMetrics.incrBytesRead "
      "Join cl In First(ClientProtocols) On cl -> incr "
      "GroupBy cl.procName Select cl.procName, SUM(incr.delta)");
  ASSERT_TRUE(q.ok());
  QueryCompiler compiler(&schema_, nullptr);
  Result<CompiledQuery> compiled = compiler.Compile(*q, 5);
  ASSERT_TRUE(compiled.ok());
  CompiledQuery shadow = MakeCountingQuery(*compiled, 6);

  LintOptions options;
  options.schema = &schema_;
  options.assume_projection_pushdown = false;  // Shadows keep fat packs.
  QueryLintResult lint = QueryLinter(options).Lint(shadow.query_id, shadow.advice, shadow.plan);
  EXPECT_EQ(lint.report.error_count(), 0u) << lint.report.ToString();
  EXPECT_EQ(lint.report.warning_count(), 0u) << lint.report.ToString();
}

// ---------------------------------------------------------------------------
// Verifier unit details

TEST(AdviceVerifierTest, VerifyWithoutContextSkipsContextChecks) {
  // No tracepoint, no bags, no query id: observe/unpack/emit checks that need
  // context are skipped, structural checks still run.
  Advice::Ptr advice = AdviceBuilder()
                           .Observe({{"whatever", "t.w"}})
                           .Unpack(123)
                           .Emit(77, {"t.w"})
                           .Build();
  VerifyResult r = AdviceVerifier().Verify(*advice);
  EXPECT_FALSE(r.report.has_errors()) << r.report.ToString();
}

TEST(AdviceVerifierTest, EnvironmentDegradesGracefullyAfterOpenUnpack) {
  // An unpack with unknown provenance opens the environment: reads of unknown
  // columns are no longer blamed (no PT102 cascade).
  Advice::Ptr advice = AdviceBuilder()
                           .Unpack(123)
                           .Let("y", Bin(ExprOp::kAdd, Field("from.bag"), Lit(1)))
                           .Emit(0, {"y", "from.bag"})
                           .Build();
  VerifyResult r = AdviceVerifier().Verify(*advice);
  EXPECT_FALSE(r.report.Has("PT102")) << r.report.ToString();
}

TEST(AdviceVerifierTest, ResultCarriesColumnsAndPackedBags) {
  VerifyContext ctx;
  ctx.query_id = 2;
  Advice::Ptr advice = AdviceBuilder()
                           .Observe({{"procid", "t.pid"}, {"host", "t.host"}})
                           .Let("double_pid", Bin(ExprOp::kMul, Field("t.pid"), Lit(2)))
                           .Pack(2 * kBagKeysPerQuery, BagSpec::First(),
                                 {"t.host", "double_pid"})
                           .Build();
  VerifyResult r = AdviceVerifier(ctx).Verify(*advice);
  EXPECT_FALSE(r.report.has_errors()) << r.report.ToString();
  EXPECT_EQ(r.columns.at("t.pid"), StaticType::kInt);
  EXPECT_EQ(r.columns.at("t.host"), StaticType::kString);
  EXPECT_EQ(r.columns.at("double_pid"), StaticType::kInt);
  const BagColumns& bag = r.packed.at(2 * kBagKeysPerQuery);
  EXPECT_EQ(bag.columns.size(), 2u);
  EXPECT_EQ(bag.columns.at("double_pid"), StaticType::kInt);
}

}  // namespace
}  // namespace pivot
