// Pins the compiler's output: for a corpus of queries compiled with pushdown
// on and off, the Explain() listing and the bytes of the weave command the
// frontend would ship (advice and result plan, agent/protocol.h) must equal
// tests/compiler_golden.txt. A change to what the compiler emits shows here as
// a diff of both; a deliberate one regenerates the file (see its header).

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/protocol.h"
#include "src/query/compiler.h"
#include "src/query/parser.h"

namespace pivot {
namespace {

struct GoldenQuery {
  const char* name;
  const char* text;
};

// The paper's Q1-Q9 (as in parser_test), perfbench's query shapes and one
// query per compiler path the paper queries leave out.
const GoldenQuery kCorpus[] = {
    {"Q1",
     "From incr In DataNodeMetrics.incrBytesRead\n"
     "GroupBy incr.host\n"
     "Select incr.host, SUM(incr.delta)"},
    {"Q2",
     "From incr In DataNodeMetrics.incrBytesRead\n"
     "Join cl In First(ClientProtocols) On cl -> incr\n"
     "GroupBy cl.procName\n"
     "Select cl.procName, SUM(incr.delta)"},
    {"Q3",
     "From dnop In DN.DataTransferProtocol\n"
     "GroupBy dnop.host\n"
     "Select dnop.host, COUNT"},
    {"Q4",
     "From getloc In NN.GetBlockLocations\n"
     "Join st In StressTest.DoNextOp On st -> getloc\n"
     "GroupBy st.host, getloc.src\n"
     "Select st.host, getloc.src, COUNT"},
    {"Q5",
     "From getloc In NN.GetBlockLocations\n"
     "Join st In StressTest.DoNextOp On st -> getloc\n"
     "GroupBy st.host, getloc.replicas\n"
     "Select st.host, getloc.replicas, COUNT"},
    {"Q6",
     "From DNop In DN.DataTransferProtocol\n"
     "Join st In StressTest.DoNextOp On st -> DNop\n"
     "GroupBy st.host, DNop.host\n"
     "Select st.host, DNop.host, COUNT"},
    {"Q7",
     "From DNop In DN.DataTransferProtocol\n"
     "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
     "Join st In StressTest.DoNextOp On st -> getloc\n"
     "Where st.host != DNop.host\n"
     "GroupBy DNop.host, getloc.replicas\n"
     "Select DNop.host, getloc.replicas, COUNT"},
    {"Q8",
     "From response In SendResponse\n"
     "Join request In MostRecent(ReceiveRequest) On request -> response\n"
     "Select response.time - request.time"},
    {"Q9",
     "From job In JobComplete\n"
     "Join latencyMeasurement In Q8 On latencyMeasurement -> job\n"
     "GroupBy job.id\n"
     "Select job.id, AVERAGE(latencyMeasurement)"},
    {"storm_key", "From s In Server.Op GroupBy s.key Select s.key, COUNT"},
    {"storm_join",
     "From s In Server.Op Join c In First(Client.Op) On c -> s GroupBy c.op Select c.op, COUNT"},
    {"storm_sample", "From s In Sample(1, Server.Op) Select s.key"},
    {"chain",
     "From e In Hop7.Handle Join s In MostRecentN(4, Hop0.Handle) On s -> e "
     "GroupBy s.key Select s.key, COUNT"},
    {"glob", "From d In DN.* GroupBy d.host Select d.host, COUNT"},
    {"sample_join",
     "From b In B Join a In Sample(50, A) On a -> b Where a.x > 3 Select b.y, a.x"},
    {"agg_pushed", "From b In B Join a In A On a -> b GroupBy a.y Select a.y, SUM(a.x)"},
    {"agg_pushed_expr",
     "From b In B Join a In A On a -> b Select SUM(a.x), MAX(a.x + a.y)"},
    {"agg_pushed_mid",
     "From c In C Join b In B On b -> c Join a In A On a -> b "
     "GroupBy a.y Select a.y, SUM(a.x * b.x)"},
    {"chain3",
     "From c In C Join b In FirstN(2, B) On b -> c Join a In A On a -> b "
     "Where a.x < b.x Where c.y != a.y GroupBy b.y Select b.y, SUM(b.x)"},
    {"select_all", "From b In B Join a In A On a -> b"},
};

// Named query the corpus joins as a subquery (Q9 joins Q8).
const char kQ8[] =
    "From response In SendResponse\n"
    "Join request In MostRecent(ReceiveRequest) On request -> response\n"
    "Select response.time - request.time";

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// One golden record: the Explain() listing, then the weave's hex, then the
// hex of the weave of the §4 counting shadow of the compiled query.
std::string Render(const CompiledQuery& cq) {
  std::string out = cq.Explain();
  out += "weave " + Hex(EncodeWeave(WeaveCommand{cq.query_id, cq.advice, cq.plan})) + "\n";
  CompiledQuery shadow = MakeCountingQuery(cq, cq.query_id + 100);
  out += "shadow " +
         Hex(EncodeWeave(WeaveCommand{shadow.query_id, shadow.advice, shadow.plan})) + "\n";
  return out;
}

// Records of the golden file by name. A record starts with a "### <name>"
// line and runs to the next one; lines starting with "#" before the first
// record are the file's header.
std::map<std::string, std::string> ReadGolden() {
  std::map<std::string, std::string> records;
  std::ifstream in(PIVOT_COMPILER_GOLDEN);
  std::string line;
  std::string* current = nullptr;
  while (std::getline(in, line)) {
    if (line.rfind("### ", 0) == 0) {
      current = &records[line.substr(4)];
    } else if (current != nullptr) {
      *current += line + "\n";
    }
  }
  return records;
}

struct GoldenCase {
  size_t query;
  bool pushdown;
};

std::string CaseName(const GoldenCase& c) {
  return std::string(kCorpus[c.query].name) + (c.pushdown ? "_pushdown" : "_no_pushdown");
}

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << CaseName(c); }

class CompilerGoldenTest : public ::testing::TestWithParam<GoldenCase> {
 protected:
  CompilerGoldenTest() {
    for (const auto& [name, exports] :
         std::vector<std::pair<std::string, std::vector<std::string>>>{
             {"DataNodeMetrics.incrBytesRead", {"delta"}},
             {"ClientProtocols", {"procName", "system"}},
             {"DN.DataTransferProtocol", {"op", "src"}},
             {"DN.ReadBlock", {"op"}},
             {"NN.GetBlockLocations", {"src", "replicas"}},
             {"StressTest.DoNextOp", {"op"}},
             {"SendResponse", {}},
             {"ReceiveRequest", {}},
             {"JobComplete", {"id"}},
             {"Server.Op", {"key"}},
             {"Client.Op", {"op", "key"}},
             {"Hop0.Handle", {"key"}},
             {"Hop7.Handle", {}},
             {"A", {"x", "y"}},
             {"B", {"x", "y"}},
             {"C", {"x", "y"}}}) {
      TracepointDef def;
      def.name = name;
      def.exports = exports;
      EXPECT_TRUE(registry_.Define(def).ok());
    }
    Result<Query> q8 = ParseQuery(kQ8);
    EXPECT_TRUE(q8.ok());
    EXPECT_TRUE(named_.Register("Q8", *q8).ok());
  }

  TracepointRegistry registry_;
  QueryRegistry named_;
};

TEST_P(CompilerGoldenTest, MatchesGolden) {
  const GoldenCase& c = GetParam();
  Result<Query> q = ParseQuery(kCorpus[c.query].text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  QueryCompiler compiler(&registry_, &named_, {.pushdown = c.pushdown});
  Result<CompiledQuery> cq = compiler.Compile(*q, c.query + 1);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();

  static const std::map<std::string, std::string> golden = ReadGolden();
  auto it = golden.find(CaseName(c));
  ASSERT_NE(it, golden.end()) << "no record '" << CaseName(c) << "' in " << PIVOT_COMPILER_GOLDEN
                              << "; this query compiles to:\n"
                              << Render(*cq);
  EXPECT_EQ(Render(*cq), it->second);
}

std::vector<GoldenCase> AllCases() {
  std::vector<GoldenCase> cases;
  for (size_t i = 0; i < std::size(kCorpus); ++i) {
    cases.push_back({i, true});
    cases.push_back({i, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CompilerGoldenTest, ::testing::ValuesIn(AllCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) { return CaseName(info.param); });

}  // namespace
}  // namespace pivot
