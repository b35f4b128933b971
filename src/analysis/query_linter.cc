#include "src/analysis/query_linter.h"

#include <algorithm>
#include <set>

#include "src/analysis/reachability.h"
#include "src/core/advice_io.h"
#include "src/telemetry/metrics.h"

namespace pivot {
namespace analysis {

namespace {

// Per-stage facts the cross-advice checks consume.
struct StageInfo {
  const std::string* tracepoint = nullptr;
  const Advice* advice = nullptr;

  std::vector<BagKey> packs;
  std::vector<BagKey> unpacks;
  bool sampled = false;    // Carries a Sample op with a rate in (0, 1).
  bool reads_all = false;  // Emits with an empty projection.
  std::set<std::string> reads;  // Columns the stage consumes by name.
};

// The projection of `advice`'s first Pack of `bag`: a retention bag's
// columns on the wire.
const std::vector<std::string>& PackedFields(const Advice& advice, BagKey bag) {
  static const std::vector<std::string> kNone;
  for (const Advice::Op& op : advice.ops()) {
    if (op.kind == Advice::OpKind::kPack && op.bag == bag) {
      return op.fields;
    }
  }
  return kNone;
}

StageInfo CollectStage(const std::string& tracepoint, const Advice& advice) {
  StageInfo info;
  info.tracepoint = &tracepoint;
  info.advice = &advice;
  for (const Advice::Op& op : advice.ops()) {
    switch (op.kind) {
      case Advice::OpKind::kSample:
        if (op.sample_rate > 0.0 && op.sample_rate < 1.0) {
          info.sampled = true;
        }
        break;
      case Advice::OpKind::kUnpack:
        info.unpacks.push_back(op.bag);
        break;
      case Advice::OpKind::kPack: {
        info.packs.push_back(op.bag);
        if (op.bag_spec.semantics == PackSemantics::kAggregate) {
          for (const auto& g : op.bag_spec.plan.group_fields) {
            info.reads.insert(g);
          }
          for (const AggSpec& spec : op.bag_spec.plan.aggs) {
            if (!spec.input.empty()) {
              info.reads.insert(spec.input);
              if (spec.from_state && spec.fn == AggFn::kAverage) {
                info.reads.insert(spec.input + "#n");
              }
            }
          }
        } else {
          info.reads.insert(op.fields.begin(), op.fields.end());
        }
        break;
      }
      case Advice::OpKind::kEmit:
        if (op.fields.empty()) {
          info.reads_all = true;
        } else {
          info.reads.insert(op.fields.begin(), op.fields.end());
        }
        break;
      case Advice::OpKind::kLet:
      case Advice::OpKind::kFilter: {
        if (op.expr != nullptr) {
          std::vector<std::string> fields;
          op.expr->CollectFields(&fields);
          info.reads.insert(fields.begin(), fields.end());
        }
        break;
      }
      case Advice::OpKind::kObserve:
        break;
    }
  }
  return info;
}

}  // namespace

const char* BaggageCostName(BaggageCost c) {
  switch (c) {
    case BaggageCost::kBounded:
      return "bounded";
    case BaggageCost::kUnboundedSampled:
      return "unbounded-sampled";
    case BaggageCost::kUnbounded:
      return "unbounded";
  }
  return "?";
}

QueryLintResult QueryLinter::Lint(
    uint64_t query_id, const std::vector<std::pair<std::string, Advice::Ptr>>& advice,
    const ResultPlan& plan) const {
  static telemetry::Counter& lints = telemetry::Metrics().GetCounter("analysis.query_lints");
  lints.Increment();
  QueryLintResult result;
  Report& report = result.report;

  if (advice.empty()) {
    report.Add("PT101", Severity::kError, "", -1, "query weaves no advice at all");
    return result;
  }

  // ---- Per-stage facts + happened-before DAG over bag dependencies ----

  std::vector<StageInfo> stages;
  stages.reserve(advice.size());
  for (const auto& [tp, adv] : advice) {
    if (adv == nullptr) {
      report.Add("PT101", Severity::kError, tp, -1, "null advice program");
      continue;
    }
    stages.push_back(CollectStage(tp, *adv));
  }

  std::map<BagKey, std::vector<size_t>> packers;
  for (size_t i = 0; i < stages.size(); ++i) {
    for (BagKey b : stages[i].packs) {
      packers[b].push_back(i);
    }
  }

  // Kahn's algorithm: stage j depends on stage i when j unpacks a bag i
  // packs. Stages left over when the queue drains sit on a pack/unpack cycle,
  // which has no valid happened-before order (PT202).
  std::vector<std::set<size_t>> deps(stages.size());
  for (size_t j = 0; j < stages.size(); ++j) {
    for (BagKey b : stages[j].unpacks) {
      auto it = packers.find(b);
      if (it == packers.end()) {
        continue;  // Never packed: the verifier reports PT106 below.
      }
      for (size_t i : it->second) {
        if (i != j) {
          deps[j].insert(i);
        } else {
          deps[j].insert(j);  // Self-cycle: a stage unpacking its own pack.
        }
      }
    }
  }

  std::vector<size_t> order;
  std::vector<bool> placed(stages.size(), false);
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (size_t i = 0; i < stages.size(); ++i) {
      if (placed[i]) {
        continue;
      }
      bool ready = true;
      for (size_t d : deps[i]) {
        if (!placed[d]) {
          ready = false;
          break;
        }
      }
      if (ready) {
        order.push_back(i);
        placed[i] = true;
        progressed = true;
      }
    }
  }
  std::vector<size_t> cyclic;
  for (size_t i = 0; i < stages.size(); ++i) {
    if (!placed[i]) {
      cyclic.push_back(i);
    }
  }
  if (!cyclic.empty()) {
    std::string names;
    for (size_t i : cyclic) {
      if (!names.empty()) {
        names += ", ";
      }
      names += *stages[i].tracepoint;
    }
    report.Add("PT202", Severity::kError, *stages[cyclic.front()].tracepoint, -1,
               "pack/unpack cycle across stages {" + names +
                   "}: no happened-before order can satisfy these bag dependencies");
  }

  // ---- Verify each stage in causal order, propagating bag knowledge ----

  bool all_emitted = false;
  std::set<std::string> emitted;
  // The stage that first packed each bag, whose projection later packers
  // must repeat.
  std::map<BagKey, const Advice*> first_packer;
  auto verify_stage = [&](size_t i, bool on_cycle) {
    const StageInfo& stage = stages[i];
    VerifyContext ctx;
    ctx.query_id = query_id;
    if (options_.schema != nullptr) {
      Tracepoint* tp = options_.schema->Find(*stage.tracepoint);
      if (tp == nullptr) {
        report.Add("PT105", Severity::kError, *stage.tracepoint, -1,
                   "unknown tracepoint '" + *stage.tracepoint + "': not in the schema registry");
      } else {
        ctx.tracepoint = &tp->def();
      }
    }
    // Cycle stages have no well-defined upstream bag set; verify them with
    // open provenance so PT202 is not compounded with spurious PT106s.
    ctx.bags = on_cycle ? nullptr : &result.bags;
    VerifyResult vr = AdviceVerifier(ctx).Verify(*stage.advice);
    report.MergeFrom(vr.report);

    for (auto& [bag, cols] : vr.packed) {
      auto pos = result.bags.find(bag);
      if (pos == result.bags.end()) {
        result.bags.emplace(bag, std::move(cols));
        first_packer.emplace(bag, stage.advice);
        continue;
      }
      if (!(pos->second.spec == cols.spec)) {
        report.Add("PT205", Severity::kError, *stage.tracepoint, -1,
                   "bag " + std::to_string(bag) +
                       " is packed under conflicting specs by different stages");
      } else if (cols.spec.semantics != PackSemantics::kAggregate &&
                 PackedFields(*first_packer.at(bag), bag) != PackedFields(*stage.advice, bag)) {
        report.Add("PT205", Severity::kError, *stage.tracepoint, -1,
                   "bag " + std::to_string(bag) +
                       " is packed with different columns by different stages; its values "
                       "travel by position, so every packer must project the same columns "
                       "in the same order");
      }
      for (const auto& [name, type] : cols.columns) {
        auto [cpos, inserted] = pos->second.columns.emplace(name, type);
        if (!inserted) {
          cpos->second = JoinStaticTypes(cpos->second, type);
        }
      }
    }
    all_emitted |= vr.emits_all;
    emitted.insert(vr.emitted_columns.begin(), vr.emitted_columns.end());
  };
  for (size_t i : order) {
    verify_stage(i, /*on_cycle=*/false);
  }
  for (size_t i : cyclic) {
    verify_stage(i, /*on_cycle=*/true);
  }

  // ---- Bag-key hygiene: range (PT204) and live-key programs (PT203) ----

  for (const auto& [bag, cols] : result.bags) {
    (void)cols;
    if (query_id != 0 && BagKeyQuery(bag) != query_id) {
      report.Add("PT204", Severity::kWarning, "", -1,
                 "bag " + std::to_string(bag) + " lies in query " +
                     std::to_string(BagKeyQuery(bag)) + "'s key range, not query " +
                     std::to_string(query_id) + "'s (keys are query_id*" +
                     std::to_string(kBagKeysPerQuery) + "+stage)");
    }
    if (options_.installed_bags != nullptr) {
      auto it = options_.installed_bags->find(bag);
      if (it != options_.installed_bags->end() &&
          it->second.program != PackStageProgram(advice, bag, {})) {
        report.Add("PT203", Severity::kError, "", -1,
                   "bag " + std::to_string(bag) +
                       " is live with a different pack program: their packed tuples would "
                       "merge into one bag");
      }
    }
  }

  // ---- Result plan consumes only emitted columns (PT206) ----

  if (!all_emitted) {
    auto require_emitted = [&](const std::string& col, const std::string& role) {
      if (emitted.count(col) == 0) {
        report.Add("PT206", Severity::kError, "", -1,
                   role + " '" + col + "' is never emitted by any advice (it would always read "
                   "as null at the agent)");
      }
    };
    for (const auto& g : plan.group_fields) {
      require_emitted(g, "result group field");
    }
    for (const AggSpec& spec : plan.aggs) {
      if (spec.input.empty()) {
        continue;  // COUNT over raw tuples needs no input column.
      }
      require_emitted(spec.input, "aggregation input");
      if (spec.from_state && spec.fn == AggFn::kAverage) {
        require_emitted(spec.input + "#n", "aggregation state column");
      }
    }
  }

  // ---- Dead packed columns / dead bags (PT207) ----

  if (options_.assume_projection_pushdown) {
    for (const auto& [bag, cols] : result.bags) {
      std::vector<const StageInfo*> consumers;
      for (const StageInfo& s : stages) {
        if (std::find(s.unpacks.begin(), s.unpacks.end(), bag) != s.unpacks.end()) {
          consumers.push_back(&s);
        }
      }
      if (consumers.empty()) {
        report.Add("PT207", Severity::kWarning, "", -1,
                   "bag " + std::to_string(bag) +
                       " is packed but no stage unpacks it: pure baggage overhead");
        continue;
      }
      if (cols.spec.semantics == PackSemantics::kAggregate) {
        continue;  // Aggregate state columns are the projection already.
      }
      for (const auto& [name, type] : cols.columns) {
        (void)type;
        bool used = false;
        for (const StageInfo* c : consumers) {
          if (c->reads_all || c->reads.count(name) != 0) {
            used = true;
            break;
          }
        }
        if (!used) {
          report.Add("PT207", Severity::kWarning, "", -1,
                     "bag " + std::to_string(bag) + " packs column '" + name +
                         "' but no unpacking stage reads it: project it away");
        }
      }
    }
  }

  // ---- Baggage cost classification (PT208 / PT209) ----

  for (const StageInfo& stage : stages) {
    for (size_t k = 0; k < stage.advice->ops().size(); ++k) {
      const Advice::Op& op = stage.advice->ops()[k];
      if (op.kind == Advice::OpKind::kPack && op.bag_spec.semantics == PackSemantics::kAll) {
        report.Add("PT208", Severity::kInfo, *stage.tracepoint, static_cast<int>(k),
                   "unbounded pack (ALL semantics) into bag " + std::to_string(op.bag) +
                       ": every invocation adds a tuple — the §4 full-table-scan risk, capped "
                       "only by the kMaxBagTuples valve" +
                       (stage.sampled ? " (mitigated here by advice-level sampling)" : ""));
        BaggageCost c =
            stage.sampled ? BaggageCost::kUnboundedSampled : BaggageCost::kUnbounded;
        if (static_cast<uint8_t>(c) > static_cast<uint8_t>(result.cost)) {
          result.cost = c;
        }
      }
    }
    size_t unbounded_unpacks = 0;
    for (BagKey b : stage.unpacks) {
      auto it = result.bags.find(b);
      if (it != result.bags.end() && it->second.spec.semantics == PackSemantics::kAll) {
        ++unbounded_unpacks;
      }
    }
    if (unbounded_unpacks >= 2) {
      report.Add("PT209", Severity::kInfo, *stage.tracepoint, -1,
                 "joins " + std::to_string(unbounded_unpacks) +
                     " unbounded bags: the unpack join is a cartesian product, so the working "
                     "set can blow up multiplicatively (truncated at kMaxWorkingSet)");
    }
  }

  // ---- Deployment reachability (PT301 / PT302 / PT303 / PT305) ----
  //
  // Only with a non-empty propagation graph: no model, no opinion. Component
  // resolution prefers the schema's TracepointDef::component (present when
  // the frontend lints), falling back to the graph's anchors (agent-side
  // re-verify has no schema). An unresolvable component skips the check —
  // the gate must never reject a query it cannot reason about.

  const PropagationRegistry* graph = options_.propagation;
  if (graph != nullptr && !graph->empty()) {
    auto component_of = [&](const std::string& tp_name) -> std::string {
      if (options_.schema != nullptr) {
        Tracepoint* tp = options_.schema->Find(tp_name);
        if (tp != nullptr && !tp->def().component.empty()) {
          return tp->def().component;
        }
      }
      return graph->ComponentOf(tp_name);
    };

    // PT301: every unpacked bag needs some packer whose component has a
    // baggage-forwarding path to the unpacker's. Unknown components on
    // either side satisfy the check.
    for (const StageInfo& stage : stages) {
      std::string here = component_of(*stage.tracepoint);
      if (here.empty()) {
        continue;
      }
      for (BagKey b : stage.unpacks) {
        auto it = packers.find(b);
        if (it == packers.end()) {
          continue;  // PT106 territory, already reported by the verifier.
        }
        bool satisfiable = false;
        bool dropped_path = false;
        std::set<std::string> sources;
        for (size_t i : it->second) {
          std::string there = component_of(*stages[i].tracepoint);
          if (there.empty() || ForwardingReachable(*graph, there, here)) {
            satisfiable = true;
            break;
          }
          sources.insert(there);
          dropped_path |= AnyReachable(*graph, there, here);
        }
        if (satisfiable) {
          continue;
        }
        std::string from;
        for (const std::string& s : sources) {
          from += (from.empty() ? "" : ", ") + s;
        }
        report.Add("PT301", Severity::kError, *stage.tracepoint, -1,
                   "unsatisfiable happened-before join: no baggage-forwarding path connects "
                   "{" + from + "} to '" + here + "', so bag " + std::to_string(b) +
                       " can never arrive here — the query would install cleanly and "
                       "silently return nothing");
        if (dropped_path) {
          report.Add("PT302", Severity::kWarning, *stage.tracepoint, -1,
                     "a causal path from {" + from + "} to '" + here +
                         "' exists but crosses a boundary that drops baggage: extend the "
                         "protocol to forward baggage across it (§6)");
        }
      }
    }

    // PT303: tracepoints anchored to components no client entry reaches.
    // Skipped when the model declares no entry points at all.
    if (HasClientEntry(*graph)) {
      std::set<std::string> flagged;
      for (const StageInfo& stage : stages) {
        std::string here = component_of(*stage.tracepoint);
        if (here.empty() || !flagged.insert(here).second) {
          continue;
        }
        if (!ReachableFromEntry(*graph, here)) {
          report.Add("PT303", Severity::kWarning, *stage.tracepoint, -1,
                     "component '" + here +
                         "' is unreachable from every client entry point: this tracepoint "
                         "can never observe client-initiated requests");
        }
      }
    }

    // PT305: path-aware worst-case growth for All-semantics packs. PT208
    // flags the local risk as info; this bounds it against the deployment —
    // an All pack at component C can add (tuple width) cells per invocation
    // at every forwarding boundary crossing along the longest simple path
    // out of C. Over budget is an error (not forceable).
    for (const auto& [bag, cols] : result.bags) {
      if (cols.spec.semantics != PackSemantics::kAll) {
        continue;
      }
      auto it = packers.find(bag);
      if (it == packers.end()) {
        continue;
      }
      for (size_t i : it->second) {
        std::string there = component_of(*stages[i].tracepoint);
        if (there.empty()) {
          continue;
        }
        size_t crossings = std::max<size_t>(1, LongestForwardingPathFrom(*graph, there));
        size_t width = std::max<size_t>(1, cols.columns.size());
        size_t bound = crossings * width;
        if (bound > options_.baggage_budget) {
          report.Add("PT305", Severity::kError, *stages[i].tracepoint, -1,
                     "worst-case baggage growth for bag " + std::to_string(bag) + ": " +
                         std::to_string(crossings) + " forwarding boundary crossings from '" +
                         there + "' × " + std::to_string(width) + " columns = " +
                         std::to_string(bound) + " tuple-cells per request, over the budget "
                         "of " + std::to_string(options_.baggage_budget) +
                         " (Fig 10 growth; bound the pack or raise the budget)");
        }
      }
    }
  }

  return result;
}

}  // namespace analysis
}  // namespace pivot
