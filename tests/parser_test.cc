#include <gtest/gtest.h>

#include "src/query/parser.h"

namespace pivot {
namespace {

// ---------------------------------------------------------------------------
// The nine queries of the paper parse verbatim.

struct PaperQuery {
  const char* name;
  const char* text;
};

// gtest lists each case with its printed parameter, and CTest names the test
// after that listing. Print the case name, not the struct's raw bytes (two
// string-literal addresses), so the test names are the same in every build.
void PrintTo(const PaperQuery& q, std::ostream* os) { *os << q.name; }

class PaperQueryTest : public ::testing::TestWithParam<PaperQuery> {};

TEST_P(PaperQueryTest, Parses) {
  Result<Query> q = ParseQuery(GetParam().text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  // Round trip: rendering the AST and reparsing yields the same rendering.
  std::string rendered = QueryToString(*q);
  Result<Query> again = ParseQuery(rendered);
  ASSERT_TRUE(again.ok()) << "re-parse of: " << rendered << "\n" << again.status().ToString();
  EXPECT_EQ(QueryToString(*again), rendered);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, PaperQueryTest,
    ::testing::Values(
        PaperQuery{"Q1",
                   "From incr In DataNodeMetrics.incrBytesRead\n"
                   "GroupBy incr.host\n"
                   "Select incr.host, SUM(incr.delta)"},
        PaperQuery{"Q2",
                   "From incr In DataNodeMetrics.incrBytesRead\n"
                   "Join cl In First(ClientProtocols) On cl -> incr\n"
                   "GroupBy cl.procName\n"
                   "Select cl.procName, SUM(incr.delta)"},
        PaperQuery{"Q3",
                   "From dnop In DN.DataTransferProtocol\n"
                   "GroupBy dnop.host\n"
                   "Select dnop.host, COUNT"},
        PaperQuery{"Q4",
                   "From getloc In NN.GetBlockLocations\n"
                   "Join st In StressTest.DoNextOp On st -> getloc\n"
                   "GroupBy st.host, getloc.src\n"
                   "Select st.host, getloc.src, COUNT"},
        PaperQuery{"Q5",
                   "From getloc In NN.GetBlockLocations\n"
                   "Join st In StressTest.DoNextOp On st -> getloc\n"
                   "GroupBy st.host, getloc.replicas\n"
                   "Select st.host, getloc.replicas, COUNT"},
        PaperQuery{"Q6",
                   "From DNop In DN.DataTransferProtocol\n"
                   "Join st In StressTest.DoNextOp On st -> DNop\n"
                   "GroupBy st.host, DNop.host\n"
                   "Select st.host, DNop.host, COUNT"},
        PaperQuery{"Q7",
                   "From DNop In DN.DataTransferProtocol\n"
                   "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
                   "Join st In StressTest.DoNextOp On st -> getloc\n"
                   "Where st.host != DNop.host\n"
                   "GroupBy DNop.host, getloc.replicas\n"
                   "Select DNop.host, getloc.replicas, COUNT"},
        PaperQuery{"Q8",
                   "From response In SendResponse\n"
                   "Join request In MostRecent(ReceiveRequest) On request -> response\n"
                   "Select response.time - request.time"},
        PaperQuery{"Q9",
                   "From job In JobComplete\n"
                   "Join latencyMeasurement In Q8 On latencyMeasurement -> job\n"
                   "GroupBy job.id\n"
                   "Select job.id, AVERAGE(latencyMeasurement)"}),
    [](const ::testing::TestParamInfo<PaperQuery>& info) { return info.param.name; });

// ---------------------------------------------------------------------------
// Structural checks

TEST(ParserTest, FromOnly) {
  Result<Query> q = ParseQuery("From e In RPCs");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from.alias, "e");
  EXPECT_EQ(q->from.tracepoints, (std::vector<std::string>{"RPCs"}));
  EXPECT_TRUE(q->joins.empty());
  EXPECT_TRUE(q->select.empty());
}

TEST(ParserTest, UnionSources) {
  // Table 1: "From e In DataRPCs, ControlRPCs".
  Result<Query> q = ParseQuery("From e In DataRPCs, ControlRPCs Select e.host");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from.tracepoints, (std::vector<std::string>{"DataRPCs", "ControlRPCs"}));
}

TEST(ParserTest, DottedTracepointNames) {
  Result<Query> q = ParseQuery("From x In DN.DataTransferProtocol.done");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->from.tracepoints[0], "DN.DataTransferProtocol.done");
}

TEST(ParserTest, TemporalFilters) {
  Result<Query> q = ParseQuery(
      "From a In X Join b In FirstN(3, Y) On b -> a Join c In MostRecentN(2, Z) On c -> a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->joins[0].source.temporal, TemporalFilter::kFirstN);
  EXPECT_EQ(q->joins[0].source.n, 3u);
  EXPECT_EQ(q->joins[1].source.temporal, TemporalFilter::kMostRecentN);
  EXPECT_EQ(q->joins[1].source.n, 2u);
}

TEST(ParserTest, TemporalCountsRunUpToTheBagCap) {
  // No bag keeps more than kMaxBagTuples tuples, so no count may ask for more.
  Result<Query> q = ParseQuery("From a In X Join b In FirstN(4096, Y) On b -> a");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->joins[0].source.n, 4096u);
  Result<Query> over = ParseQuery("From a In X Join b In FirstN(4294967296, Y) On b -> a");
  ASSERT_FALSE(over.ok());
  EXPECT_NE(over.status().message().find("1..4096"), std::string::npos)
      << over.status().ToString();
}

TEST(ParserTest, OversizedNumberLiteralNamesItsOffset) {
  Result<Query> q = ParseQuery("From a In X Where a.d > 99999999999999999999 Select a.d");
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(q.status().message().find("out of range at offset 24"), std::string::npos)
      << q.status().ToString();
  EXPECT_TRUE(ParseQuery("From a In X Where a.d > 9223372036854775807 Select a.d").ok());
}

TEST(ParserTest, JoinDirection) {
  Result<Query> q = ParseQuery("From b In B Join a In A On a -> b");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->joins[0].left, "a");
  EXPECT_EQ(q->joins[0].right, "b");
}

TEST(ParserTest, WhereExpression) {
  Result<Query> q = ParseQuery("From e In X Where e.size < 10 && e.host != \"A\"");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->where.size(), 1u);
  EXPECT_EQ(q->where[0]->ToString(), "((e.size < 10) && (e.host != \"A\"))");
}

TEST(ParserTest, MultipleWhereClausesConjoin) {
  Result<Query> q = ParseQuery("From e In X Where e.a == 1 Where e.b == 2");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->where.size(), 2u);
}

TEST(ParserTest, ArithmeticPrecedence) {
  Result<Query> q = ParseQuery("From e In X Select e.a + e.b * e.c - e.d / 2");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].expr->ToString(), "((e.a + (e.b * e.c)) - (e.d / 2))");
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Result<Query> q = ParseQuery("From e In X Select (e.a + e.b) * e.c");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].expr->ToString(), "((e.a + e.b) * e.c)");
}

TEST(ParserTest, SelectAs) {
  Result<Query> q = ParseQuery("From e In X Select e.time - e.start As latency");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].display, "latency");
  EXPECT_TRUE(q->select[0].has_explicit_alias);
}

TEST(ParserTest, AggregateDisplayNames) {
  Result<Query> q = ParseQuery("From e In X Select SUM(e.delta), COUNT, AVG(e.lat)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].display, "SUM(e.delta)");
  EXPECT_EQ(q->select[1].display, "COUNT");
  EXPECT_EQ(q->select[2].display, "AVERAGE(e.lat)");
  EXPECT_TRUE(q->select[2].is_aggregate);
  EXPECT_EQ(q->select[2].fn, AggFn::kAverage);
}

TEST(ParserTest, CaseInsensitiveKeywords) {
  Result<Query> q = ParseQuery("FROM e IN X GROUPBY e.h SELECT e.h, count");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"e.h"}));
  EXPECT_TRUE(q->select[1].is_aggregate);
}

TEST(ParserTest, Utf8MinusAccepted) {
  // The paper's Q8 uses U+2212; both minus characters must parse.
  Result<Query> q = ParseQuery("From r In X Select r.time \xE2\x88\x92 r.start");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->select[0].expr->ToString(), "(r.time - r.start)");
}

TEST(ParserTest, SubqueryJoinRecognized) {
  Result<Query> q = ParseQuery("From j In JobComplete Join m In Q8 On m -> j");
  ASSERT_TRUE(q.ok());
  // "Q8" is not a defined tracepoint name contextually; it stays a tracepoint
  // ref at parse time and becomes a subquery reference at compile time when
  // the name resolves in the QueryRegistry. The parser records it verbatim.
  EXPECT_EQ(q->joins[0].source.tracepoints[0], "Q8");
}

// ---------------------------------------------------------------------------
// Expression depth: each way an expression deepens, at kMaxExprDepth and one
// past it. The parser accepts exactly the trees DecodeExpr accepts, and bounds
// its own recursion, so far deeper input fails cleanly instead of exhausting
// the stack.

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) {
    out += s;
  }
  return out;
}

struct DeepForm {
  const char* name;
  std::string (*where)(int depth);
};

const DeepForm kDeepForms[] = {
    {"OperatorChain", [](int n) { return "a.x" + Repeat(" + 1", n); }},
    {"Parentheses", [](int n) { return Repeat("(", n) + "a.x" + Repeat(")", n); }},
    {"NotChain", [](int n) { return Repeat("!", n) + "a.x"; }},
    {"NegationChain", [](int n) { return Repeat("- ", n) + "a.x"; }},
    {"FoldedNegationChain", [](int n) { return Repeat("- ", n) + "1"; }},
};

Result<Query> ParseDeep(const DeepForm& form, int depth) {
  return ParseQuery("From a In X Where " + form.where(depth) + " Select a.x");
}

TEST(ParserTest, ExpressionDepthIsBoundedAtTheDecodeLimit) {
  for (const DeepForm& form : kDeepForms) {
    SCOPED_TRACE(form.name);
    Result<Query> at = ParseDeep(form, kMaxExprDepth);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    EXPECT_LE(at->where[0]->depth(), kMaxExprDepth);
    Result<Query> over = ParseDeep(form, kMaxExprDepth + 1);
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(over.status().message().find("deeper than 128 levels (at offset"),
              std::string::npos)
        << over.status().ToString();
  }
  // The chains build trees exactly as deep as their operator count.
  EXPECT_EQ(ParseDeep(kDeepForms[0], kMaxExprDepth)->where[0]->depth(), kMaxExprDepth);
  EXPECT_EQ(ParseDeep(kDeepForms[2], kMaxExprDepth)->where[0]->depth(), kMaxExprDepth);
}

TEST(ParserTest, FarDeeperExpressionsFailWithoutExhaustingTheStack) {
  for (const DeepForm& form : kDeepForms) {
    SCOPED_TRACE(form.name);
    Result<Query> q = ParseDeep(form, 200000);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
  }
}

// ---------------------------------------------------------------------------
// Errors

struct BadQuery {
  const char* name;
  const char* text;
};

void PrintTo(const BadQuery& q, std::ostream* os) { *os << q.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadQuery> {};

TEST_P(ParserErrorTest, Rejected) {
  Result<Query> q = ParseQuery(GetParam().text);
  EXPECT_FALSE(q.ok()) << "should have failed: " << GetParam().text;
  EXPECT_EQ(q.status().code(), StatusCode::kInvalidArgument);
}

// A 400-digit decimal overflows a double.
const std::string kLongDoubleQuery =
    "From a In X Where a.d > " + std::string(400, '9') + ".5 Select a.d";

INSTANTIATE_TEST_SUITE_P(
    Cases, ParserErrorTest,
    ::testing::Values(BadQuery{"NoFrom", "Select e.x"},
                      BadQuery{"MissingIn", "From e X"},
                      BadQuery{"MissingOn", "From a In X Join b In Y b -> a"},
                      BadQuery{"MissingArrow", "From a In X Join b In Y On b a"},
                      BadQuery{"DanglingSelect", "From a In X Select"},
                      BadQuery{"UnterminatedString", "From a In X Where a.h == \"oops"},
                      BadQuery{"BadCharacter", "From a In X Where a.h # 1"},
                      BadQuery{"UnbalancedParen", "From a In X Select (a.x + 1"},
                      BadQuery{"SingleEquals", "From a In X Where a.h = 1"},
                      BadQuery{"FirstNNeedsCount", "From a In X Join b In FirstN(Y) On b -> a"},
                      BadQuery{"TrailingGarbage", "From a In X Select a.x ??"},
                      BadQuery{"IntLiteralOutOfRange",
                               "From a In X Where a.d > 99999999999999999999 Select a.d"},
                      BadQuery{"DoubleLiteralOutOfRange",
                               kLongDoubleQuery.c_str()},
                      BadQuery{"FirstNCountOverTheValve",
                               "From a In X Join b In FirstN(4097, Y) On b -> a"},
                      BadQuery{"FirstNCountWrapsAt2To32",
                               "From a In X Join b In FirstN(4294967296, Y) On b -> a"},
                      BadQuery{"MostRecentNCountOverTheValve",
                               "From a In X Join b In MostRecentN(4097, Y) On b -> a"}),
    [](const ::testing::TestParamInfo<BadQuery>& info) { return info.param.name; });

}  // namespace
}  // namespace pivot
