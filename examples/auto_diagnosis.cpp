// Automated problem detection and drill-down — the §8 future-work idea
// ("We leave it to future work to explore the use of Pivot Tracing for
// automatic problem detection and exploration") built from the library's
// primitives: a watchdog keeps one cheap standing query running, and when the
// query's per-interval results show an anomaly it *automatically* installs
// progressively deeper diagnosis queries, ending with a root-cause verdict.
// The simulation runs one second at a time; after each second's agent flush,
// the watchdog checks the interval just reported with the current stage's
// query.
//
// The injected fault is the §6.1 replica-selection bug; the watchdog
// rediscovers it without a human in the loop:
//   stage 1  standing Q3 (per-DataNode op counts) -> detects load skew
//   stage 2  drill-down Q6 (client x selected DataNode) -> selection bias
//   stage 3  drill-down Q7 (pairwise replica preference) -> strict total
//            order => "replica selection ignores randomization" verdict
//
// Build & run:  ./build/examples/auto_diagnosis

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "src/common/strings.h"
#include "src/hadoop/cluster.h"

using namespace pivot;

namespace {

class Watchdog {
 public:
  explicit Watchdog(HadoopCluster* cluster) : cluster_(cluster) {
    frontend_ = cluster_->world()->frontend();
  }

  void Start() {
    q3_ = *frontend_->Install(
        "From dnop In DN.DataTransferProtocol GroupBy dnop.host Select dnop.host, COUNT");
    printf("[watchdog] standing query installed: per-DataNode op counts (Q3)\n");
  }

  // Runs the current stage's check on the interval the agents flushed at
  // `ts` (simulated micros).
  void Tick(int64_t ts) {
    switch (stage_) {
      case 1:
        OnQ3Interval(ts);
        break;
      case 2:
        OnQ6Interval(ts);
        break;
      case 3:
        OnQ7Interval(ts);
        break;
      default:
        break;
    }
  }

  bool diagnosed() const { return diagnosed_; }

 private:
  // Stage 1: look for sustained load skew in the per-interval Q3 results.
  void OnQ3Interval(int64_t ts) {
    auto series = frontend_->Series(q3_);
    auto it = series.find(ts);
    if (it == series.end() || it->second.size() < 4) {
      return;
    }
    double max_count = 0;
    double min_count = 1e18;
    for (const Tuple& row : it->second) {
      double c = row.Get("COUNT").AsDouble();
      max_count = std::max(max_count, c);
      min_count = std::min(min_count, c);
    }
    if (min_count > 0 && max_count / min_count > 3.0) {
      ++skewed_intervals_;
    } else {
      skewed_intervals_ = 0;
    }
    if (skewed_intervals_ >= 2) {
      printf("[watchdog] t=%llds ANOMALY: DataNode load skew %.1fx for 2 intervals\n",
             static_cast<long long>(ts / kMicrosPerSecond), max_count / min_count);
      stage_ = 2;
      InstallQ6();
    }
  }

  // Stage 2: is the skew caused by *clients' selection* rather than load?
  void InstallQ6() {
    q6_ = *frontend_->Install(
        "From DNop In DN.DataTransferProtocol\n"
        "Join st In StressTest.DoNextOp On st -> DNop\n"
        "GroupBy st.host, DNop.host Select st.host, DNop.host, COUNT");
    printf("[watchdog] drill-down installed: client x selected DataNode (Q6)\n");
  }

  void OnQ6Interval(int64_t ts) {
    // Accumulate a couple of intervals, then test for column concentration
    // among non-local selections.
    if (++q6_intervals_ < 2) {
      return;
    }
    std::map<std::string, double> nonlocal_by_dn;
    double nonlocal_total = 0;
    for (const Tuple& row : frontend_->Results(q6_)) {
      if (row.Get("st.host").string_value() == row.Get("DNop.host").string_value()) {
        continue;
      }
      nonlocal_by_dn[row.Get("DNop.host").string_value()] += row.Get("COUNT").AsDouble();
      nonlocal_total += row.Get("COUNT").AsDouble();
    }
    if (nonlocal_total < 100) {
      return;
    }
    // Top-2 DataNodes' share of non-local selections.
    std::vector<double> shares;
    for (const auto& [dn, count] : nonlocal_by_dn) {
      shares.push_back(count / nonlocal_total);
    }
    std::sort(shares.rbegin(), shares.rend());
    double top2 = shares.size() >= 2 ? shares[0] + shares[1] : shares[0];
    if (top2 > 0.5) {
      printf("[watchdog] t=%llds clients concentrate %.0f%% of non-local reads on 2 "
             "DataNodes -> selection bias, not placement\n",
             static_cast<long long>(ts / kMicrosPerSecond), top2 * 100);
      stage_ = 3;
      InstallQ7();
    }
  }

  // Stage 3: given the offered replicas, which one wins?
  void InstallQ7() {
    q7_ = *frontend_->Install(
        "From DNop In DN.DataTransferProtocol\n"
        "Join getloc In NN.GetBlockLocations On getloc -> DNop\n"
        "Join st In StressTest.DoNextOp On st -> getloc\n"
        "Where st.host != DNop.host\n"
        "GroupBy DNop.host, getloc.replicas Select DNop.host, getloc.replicas, COUNT");
    printf("[watchdog] drill-down installed: chosen replica vs offered set (Q7)\n");
  }

  void OnQ7Interval(int64_t ts) {
    if (++q7_intervals_ < 2) {
      return;
    }
    // Pairwise win rates; a total order (all 0% or 100%) convicts a
    // deterministic selection policy.
    std::map<std::pair<std::string, std::string>, double> wins;
    std::map<std::pair<std::string, std::string>, double> meetings;
    for (const Tuple& row : frontend_->Results(q7_)) {
      std::string chosen = row.Get("DNop.host").string_value();
      double count = row.Get("COUNT").AsDouble();
      for (const auto& other : StrSplit(row.Get("getloc.replicas").string_value(), ',')) {
        if (other == chosen) {
          continue;
        }
        wins[{chosen, other}] += count;
        meetings[{chosen, other}] += count;
        meetings[{other, chosen}] += count;
      }
    }
    int decisive = 0;
    int pairs = 0;
    for (const auto& [pair, met] : meetings) {
      if (pair.first >= pair.second || met < 20) {
        continue;  // Count each unordered pair once, with enough samples.
      }
      ++pairs;
      double rate = wins[{pair.first, pair.second}] / met;
      if (rate < 0.02 || rate > 0.98) {
        ++decisive;
      }
    }
    if (pairs >= 5 && decisive == pairs) {
      printf("[watchdog] t=%llds VERDICT: every replica pair resolves deterministically "
             "(%d/%d pairs at 0%%/100%%).\n",
             static_cast<long long>(ts / kMicrosPerSecond), decisive, pairs);
      printf("[watchdog]   => replica selection is not randomized: the NameNode returns a "
             "fixed order and clients take the first entry (HDFS-6268).\n");
      diagnosed_ = true;
      stage_ = 4;
      for (uint64_t q : {q6_, q7_}) {
        (void)frontend_->Uninstall(q);
      }
      printf("[watchdog] drill-down queries uninstalled; standing Q3 remains.\n");
    }
  }

  HadoopCluster* cluster_;
  Frontend* frontend_ = nullptr;
  int stage_ = 1;
  int skewed_intervals_ = 0;
  int q6_intervals_ = 0;
  int q7_intervals_ = 0;
  uint64_t q3_ = 0;
  uint64_t q6_ = 0;
  uint64_t q7_ = 0;
  bool diagnosed_ = false;
};

}  // namespace

int main() {
  HadoopClusterConfig config;
  config.worker_hosts = 8;
  config.dataset_files = 500;
  config.seed = 2024;
  config.deploy_hbase = false;
  config.deploy_mapreduce = false;
  config.hdfs.datanode_op_micros = 800;
  config.hdfs.static_order_hosts = {"A", "D", "B", "C", "E", "F", "G", "H"};
  HadoopCluster cluster(config);

  Watchdog watchdog(&cluster);
  watchdog.Start();

  // The workload with the latent bug.
  std::vector<std::unique_ptr<HdfsReadWorkload>> clients;
  uint64_t seed = 1;
  for (int h = 0; h < 8; ++h) {
    for (int c = 0; c < 6; ++c) {
      SimProcess* proc = cluster.AddClient(cluster.worker(static_cast<size_t>(h)), "StressTest");
      clients.push_back(std::make_unique<HdfsReadWorkload>(
          proc, cluster.namenode(), 8 << 10, 10 * kMicrosPerMilli, true, seed++));
      clients.back()->Start(30 * kMicrosPerSecond);
    }
  }

  // Step one simulated second at a time: RunUntil(t) runs the agents'
  // flush at t, so the interval the watchdog checks is complete.
  constexpr int64_t kRunSeconds = 30;
  cluster.world()->StartAgentFlushLoop(kRunSeconds * kMicrosPerSecond);
  for (int64_t t = kMicrosPerSecond; t <= kRunSeconds * kMicrosPerSecond; t += kMicrosPerSecond) {
    cluster.world()->RunUntil(t);
    watchdog.Tick(t);
  }
  cluster.world()->env()->RunAll();

  if (!watchdog.diagnosed()) {
    printf("[watchdog] no verdict reached within the run\n");
    return 1;
  }
  printf("\nDiagnosis completed autonomously: three queries, installed on demand, zero\n"
         "human interaction and zero recompilation.\n");
  return 0;
}
