// The frontend keeps what it no longer merges into in the agents' wire form:
// each interval as the report slices it received, and an uninstalled query's
// total sealed into slices. These tests check that Series() and Results()
// still return exactly what a merge of decoded sets (ResultSet::Absorb)
// returns, before and after Uninstall, and that the bytes held stay within
// the bytes received.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/agent/frontend.h"
#include "src/agent/protocol.h"
#include "src/bus/message_bus.h"

namespace pivot {
namespace {

constexpr char kAggregated[] = "From t In T GroupBy t.k Select t.k, AVERAGE(t.v), COUNT";
constexpr char kStreaming[] = "From t In T Select t.k, t.v";

// Rows in order, rendered: order matters here, unlike CanonicalTuples.
std::vector<std::string> Rendered(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    out.push_back(t.ToString());
  }
  return out;
}

std::map<int64_t, std::vector<std::string>> Rendered(
    const std::map<int64_t, std::vector<Tuple>>& series) {
  std::map<int64_t, std::vector<std::string>> out;
  for (const auto& [ts, rows] : series) {
    out.emplace(ts, Rendered(rows));
  }
  return out;
}

class HeldResultsTest : public ::testing::Test {
 protected:
  HeldResultsTest() : frontend_(&bus_, &schema_) {
    TracepointDef def;
    def.name = "T";
    def.exports = {"k", "v"};
    EXPECT_TRUE(schema_.Define(def).ok());
  }

  uint64_t Install(const char* text) {
    Result<uint64_t> id = frontend_.Install(text);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : 0;
  }

  ResultSet EmptySet(uint64_t query_id) { return ResultSet(frontend_.compiled(query_id)->plan); }

  // The held bytes of one query, from QueryStatuses.
  uint64_t HeldBytes(uint64_t query_id) {
    for (const Frontend::QueryStatus& s : frontend_.QueryStatuses()) {
      if (s.query_id == query_id) {
        return s.held_bytes;
      }
    }
    ADD_FAILURE() << "no status for query " << query_id;
    return 0;
  }

  // Publishes `batch` to the frontend and merges the reports the frontend
  // decodes from the same bytes into the reference sets, set to set, as the
  // frontend merged before it kept bytes. Returns the frame's report bytes.
  size_t Publish(const ReportBatch& batch) {
    std::vector<size_t> report_bytes;
    std::vector<uint8_t> payload = EncodeReportBatch(batch, &report_bytes);
    Result<ControlMessage> decoded =
        DecodeControlMessage(payload, [this](uint64_t id) -> const ResultSet* {
          auto it = totals_.find(id);
          return it == totals_.end() ? nullptr : &it->second;
        });
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    for (const ReceivedReport& report : decoded->batch.reports) {
      const int64_t ts = decoded->batch.timestamp_micros;
      ResultSet results = totals_.at(report.query_id).EmptyLike();
      EXPECT_TRUE(results.DecodeSlices(report.wire));
      totals_.at(report.query_id).Absorb(results);
      auto& intervals = intervals_[report.query_id];
      auto slot = intervals.find(ts);
      if (slot == intervals.end()) {
        intervals.emplace(ts, std::move(results));
      } else {
        slot->second.Absorb(std::move(results));
      }
    }
    bus_.Publish(BusMessage{kReportTopic, std::move(payload)});
    size_t sum = 0;
    for (size_t n : report_bytes) {
      sum += n;
    }
    return sum;
  }

  void Track(uint64_t query_id) { totals_.emplace(query_id, EmptySet(query_id)); }

  std::vector<std::string> ReferenceResults(uint64_t query_id) {
    return Rendered(totals_.at(query_id).Finalize());
  }

  std::map<int64_t, std::vector<std::string>> ReferenceSeries(uint64_t query_id) {
    std::map<int64_t, std::vector<std::string>> out;
    for (const auto& [ts, set] : intervals_[query_id]) {
      out.emplace(ts, Rendered(set.Finalize()));
    }
    return out;
  }

  MessageBus bus_;
  TracepointRegistry schema_;
  Frontend frontend_;
  std::map<uint64_t, ResultSet> totals_;
  std::map<uint64_t, std::map<int64_t, ResultSet>> intervals_;
};

TEST_F(HeldResultsTest, SeriesAndResultsEqualASetMergeBeforeAndAfterUninstall) {
  const uint64_t agg = Install(kAggregated);
  const uint64_t rows = Install(kStreaming);
  ASSERT_NE(agg, 0u);
  ASSERT_NE(rows, 0u);
  Track(agg);
  Track(rows);

  // Three agents, three intervals. The aggregated query's groups overlap
  // across agents and intervals; the streaming query's agents report
  // different column sets (A: k then v, B: v then k, C: k only), and in the
  // last interval C sends more rows of no columns than the frame's size
  // allows, so the frame caps them and counts the rest as dropped.
  size_t received = 0;
  const char* hosts[] = {"A", "B", "C"};
  for (int interval = 1; interval <= 3; ++interval) {
    for (int agent = 0; agent < 3; ++agent) {
      ReportBatch batch;
      batch.host = hosts[agent];
      batch.process_name = "proc";
      batch.timestamp_micros = interval * int64_t{1'000'000};
      AgentReport& a = batch.reports.emplace_back(agg, EmptySet(agg));
      for (int i = 0; i < 4 + agent; ++i) {
        Tuple t{{"t.k", Value(int64_t{(i + agent) % 5})}};
        if (i % 2 == 0) {
          t.Append("t.v", Value(int64_t{i * interval}));
        } else {
          t.Append("t.v", Value(0.5 * (i + agent)));
        }
        a.results.AddInput(t);
      }
      AgentReport& s = batch.reports.emplace_back(rows, EmptySet(rows));
      for (int i = 0; i < 3; ++i) {
        const Value k(int64_t{interval * 10 + i});
        const Value v("v" + std::to_string(agent));
        if (agent == 0) {
          s.results.AddInput(Tuple{{"t.k", k}, {"t.v", v}});
        } else if (agent == 1) {
          s.results.AddInput(Tuple{{"t.v", v}, {"t.k", k}});
        } else if (interval < 3) {
          s.results.AddInput(Tuple{{"t.k", k}});
        }
      }
      if (agent == 2 && interval == 3) {
        for (int i = 0; i < 5000; ++i) {
          s.results.AddInput(Tuple());
        }
      }
      received += Publish(batch);
    }
  }

  const std::vector<std::string> agg_results = Rendered(frontend_.Results(agg));
  const std::vector<std::string> rows_results = Rendered(frontend_.Results(rows));
  const auto agg_series = Rendered(frontend_.Series(agg));
  const auto rows_series = Rendered(frontend_.Series(rows));
  EXPECT_EQ(agg_results, ReferenceResults(agg));
  EXPECT_EQ(rows_results, ReferenceResults(rows));
  EXPECT_EQ(agg_series, ReferenceSeries(agg));
  EXPECT_EQ(rows_series, ReferenceSeries(rows));
  ASSERT_EQ(agg_series.size(), 3u);
  ASSERT_EQ(rows_series.size(), 3u);
  // The capped report kept fewer rows than were sent.
  EXPECT_LT(intervals_[rows].at(3'000'000).size(), 6u + 5000u);
  EXPECT_GT(intervals_[rows].at(3'000'000).dropped(), 0u);

  // Active: the intervals hold the report slices, no more than arrived.
  const uint64_t agg_held = HeldBytes(agg);
  const uint64_t rows_held = HeldBytes(rows);
  EXPECT_GT(agg_held, 0u);
  EXPECT_GT(rows_held, 0u);
  EXPECT_LE(agg_held + rows_held, received);

  // Uninstall seals the totals: both reads return exactly what they did.
  ASSERT_TRUE(frontend_.Uninstall(agg).ok());
  ASSERT_TRUE(frontend_.Uninstall(rows).ok());
  EXPECT_EQ(Rendered(frontend_.Results(agg)), agg_results);
  EXPECT_EQ(Rendered(frontend_.Results(rows)), rows_results);
  EXPECT_EQ(Rendered(frontend_.Series(agg)), agg_series);
  EXPECT_EQ(Rendered(frontend_.Series(rows)), rows_series);
  EXPECT_GT(HeldBytes(agg), agg_held);
  EXPECT_GT(HeldBytes(rows), rows_held);

  // Reports that arrive after Uninstall change nothing.
  ReportBatch late;
  late.host = "A";
  late.process_name = "proc";
  late.timestamp_micros = 4'000'000;
  late.reports.emplace_back(agg, EmptySet(agg)).results.AddInput(Tuple{{"t.k", Value(int64_t{1})}});
  bus_.Publish(BusMessage{kReportTopic, EncodeReportBatch(late)});
  EXPECT_EQ(Rendered(frontend_.Results(agg)), agg_results);

  // Trimming drops whole intervals and leaves the sealed total alone.
  const uint64_t sealed_and_series = HeldBytes(rows);
  frontend_.TrimSeriesBefore(rows, 2'000'000);
  auto trimmed = rows_series;
  trimmed.erase(1'000'000);
  EXPECT_EQ(Rendered(frontend_.Series(rows)), trimmed);
  EXPECT_LT(HeldBytes(rows), sealed_and_series);
  frontend_.TrimSeriesBefore(0, 4'000'000);
  EXPECT_TRUE(frontend_.Series(agg).empty());
  EXPECT_TRUE(frontend_.Series(rows).empty());
  EXPECT_EQ(Rendered(frontend_.Results(agg)), agg_results);
  EXPECT_EQ(Rendered(frontend_.Results(rows)), rows_results);
  EXPECT_GT(HeldBytes(rows), 0u);
}

TEST_F(HeldResultsTest, SealedTotalKeepsEveryColumnOfEveryRow) {
  // A streaming total whose rows change columns several times seals into one
  // slice per run; reading it back loses no column and no row.
  const uint64_t rows = Install(kStreaming);
  ASSERT_NE(rows, 0u);
  Track(rows);
  const std::vector<std::vector<std::string>> runs = {
      {"t.k", "t.v"}, {"t.v"}, {"t.k", "t.v"}, {"t.v", "t.k"}, {"t.k"}};
  int64_t n = 0;
  for (size_t r = 0; r < runs.size(); ++r) {
    ReportBatch batch;
    batch.host = "A";
    batch.process_name = "proc";
    batch.timestamp_micros = 1'000'000;
    AgentReport& report = batch.reports.emplace_back(rows, EmptySet(rows));
    for (int i = 0; i < 2; ++i) {
      Tuple t;
      for (const std::string& column : runs[r]) {
        t.Append(column, Value(n++));
      }
      report.results.AddInput(t);
    }
    Publish(batch);
  }
  const std::vector<std::string> before = Rendered(frontend_.Results(rows));
  ASSERT_EQ(before, ReferenceResults(rows));
  ASSERT_TRUE(frontend_.Uninstall(rows).ok());
  EXPECT_EQ(Rendered(frontend_.Results(rows)), before);
}

TEST_F(HeldResultsTest, ChurnHoldsNoMoreThanTheReportBytesReceived) {
  // 200 install/report/uninstall cycles of a 5k-group query. Each cycle's
  // intervals hold at most the report bytes that arrived, and its sealed
  // total at most as many again: held bytes track the wire, not the ~10x
  // larger decoded groups.
  constexpr int kCycles = 200;
  constexpr int kGroups = 5000;
  std::vector<std::pair<uint64_t, size_t>> cycles;  // (query, report bytes received)
  for (int c = 0; c < kCycles; ++c) {
    const uint64_t id = Install("From t In T GroupBy t.k Select t.k, COUNT");
    ASSERT_NE(id, 0u);
    size_t received = 0;
    for (const char* host : {"A", "B"}) {
      ReportBatch batch;
      batch.host = host;
      batch.process_name = "proc";
      batch.timestamp_micros = (c + 1) * int64_t{1'000'000};
      AgentReport& report = batch.reports.emplace_back(id, EmptySet(id));
      for (int g = 0; g < kGroups; ++g) {
        report.results.AddInput(Tuple{{"t.k", Value(int64_t{g})}});
      }
      std::vector<size_t> report_bytes;
      std::vector<uint8_t> payload = EncodeReportBatch(batch, &report_bytes);
      received += report_bytes.at(0);
      bus_.Publish(BusMessage{kReportTopic, std::move(payload)});
    }
    ASSERT_LE(HeldBytes(id), received);
    ASSERT_TRUE(frontend_.Uninstall(id).ok());
    cycles.emplace_back(id, received);
  }
  for (const auto& [id, received] : cycles) {
    EXPECT_LE(HeldBytes(id), 2 * received) << "query " << id;
  }
  const std::vector<Tuple> last = frontend_.Results(cycles.back().first);
  ASSERT_EQ(last.size(), size_t{kGroups});
  EXPECT_EQ(last[0].Get("COUNT").int_value(), 2);
  // With the series trimmed, each query holds only its sealed total.
  frontend_.TrimSeriesBefore(0, INT64_MAX);
  for (const auto& [id, received] : cycles) {
    EXPECT_LE(HeldBytes(id), received) << "query " << id;
  }
}

}  // namespace
}  // namespace pivot
