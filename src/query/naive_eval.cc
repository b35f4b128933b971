#include "src/query/naive_eval.h"

#include <algorithm>
#include <functional>
#include <map>

#include "src/core/aggregation.h"
#include "src/query/compiler.h"
#include "src/query/flatten.h"

namespace pivot {

namespace {

struct NStage {
  SourceRef source;
  std::vector<size_t> succs;           // Stage indices this one happens before.
  std::vector<size_t> preds;           // Stage indices happening before this one.
  std::vector<LetBinding> lets;
};

// One candidate tuple of a stage within a trace.
struct Candidate {
  EventId event;
  Tuple tuple;  // Alias-qualified fields.
};

bool MatchesSource(const SourceRef& src, const std::string& tracepoint) {
  return std::find(src.tracepoints.begin(), src.tracepoints.end(), tracepoint) !=
         src.tracepoints.end();
}

}  // namespace

Result<NaiveResult> EvaluateNaive(const Query& q, const TraceRecorder& recorder,
                                  const QueryRegistry* named_queries) {
  FlatQuery flat;
  PIVOT_RETURN_IF_ERROR(FlattenQuery(q, named_queries, &flat));

  // Sampling is probabilistic at the advice level; there is no deterministic
  // global equivalent to compare against.
  auto check_sampled = [](const SourceRef& src) {
    return src.sample_rate < 1.0
               ? UnimplementedError("naive evaluation of sampled sources: " + src.alias)
               : Status::Ok();
  };
  PIVOT_RETURN_IF_ERROR(check_sampled(flat.from));
  for (const auto& j : flat.joins) {
    PIVOT_RETURN_IF_ERROR(check_sampled(j.source));
  }

  // ---- Stages and topological order (From last). ----
  std::vector<NStage> stages;
  std::map<std::string, size_t> alias_to_stage;
  for (const auto& j : flat.joins) {
    alias_to_stage[j.source.alias] = stages.size();
    stages.push_back(NStage{j.source, {}, {}, {}});
  }
  size_t final_idx = stages.size();
  alias_to_stage[flat.from.alias] = final_idx;
  stages.push_back(NStage{flat.from, {}, {}, {}});

  std::vector<std::pair<size_t, size_t>> edges;  // (earlier, later)
  for (const auto& j : flat.joins) {
    auto li = alias_to_stage.find(j.left);
    auto ri = alias_to_stage.find(j.right);
    if (li == alias_to_stage.end() || ri == alias_to_stage.end()) {
      return InvalidArgumentError("On clause references unknown alias");
    }
    edges.emplace_back(li->second, ri->second);
    stages[li->second].succs.push_back(ri->second);
    stages[ri->second].preds.push_back(li->second);
  }
  for (const auto& let : flat.lets) {
    auto it = alias_to_stage.find(let.alias);
    if (it == alias_to_stage.end()) {
      return InternalError("let bound to unknown alias: " + let.alias);
    }
    stages[it->second].lets.push_back(let);
  }

  std::vector<size_t> topo;
  {
    std::vector<size_t> indeg(stages.size(), 0);
    for (const auto& [a, b] : edges) {
      (void)a;
      ++indeg[b];
    }
    std::vector<size_t> ready;
    for (size_t i = 0; i < stages.size(); ++i) {
      if (indeg[i] == 0) {
        ready.push_back(i);
      }
    }
    while (!ready.empty()) {
      size_t i = ready.back();
      ready.pop_back();
      topo.push_back(i);
      for (size_t s : stages[i].succs) {
        if (--indeg[s] == 0) {
          ready.push_back(s);
        }
      }
    }
    if (topo.size() != stages.size()) {
      return InvalidArgumentError("happened-before constraints form a cycle");
    }
    topo.erase(std::remove(topo.begin(), topo.end(), final_idx), topo.end());
    topo.push_back(final_idx);
  }
  std::vector<size_t> reverse_topo(topo.rbegin(), topo.rend());

  // Row column order, the compiled one: a stage's own columns (its Observe),
  // then each stage it joins, in On order, with what that stage packed (its
  // Unpack), depth first. The From source comes first.
  std::vector<size_t> row_order;
  {
    std::vector<bool> seen(stages.size(), false);
    std::function<void(size_t)> visit = [&](size_t idx) {
      if (seen[idx]) {
        return;
      }
      seen[idx] = true;
      row_order.push_back(idx);
      for (size_t p : stages[idx].preds) {
        visit(p);
      }
    };
    visit(final_idx);
    for (size_t idx : topo) {
      visit(idx);  // Stages not feeding the From source (a query the compiler rejects).
    }
  }

  NaiveResult result;

  // ---- Per-trace candidate extraction. ----
  // candidates[trace][stage] in chronological (event id) order.
  std::map<uint64_t, std::vector<std::vector<Candidate>>> candidates;
  for (const auto& ev : recorder.observed()) {
    for (size_t i = 0; i < stages.size(); ++i) {
      if (!MatchesSource(stages[i].source, ev.tracepoint)) {
        continue;
      }
      auto it = candidates.find(ev.trace_id);
      if (it == candidates.end()) {
        it = candidates.emplace(ev.trace_id, std::vector<std::vector<Candidate>>(stages.size()))
                 .first;
      }
      Tuple qualified;
      for (const auto& f : ev.exports.fields()) {
        qualified.Append(stages[i].source.alias + "." + std::string(f.name()), f.value);
      }
      it->second[i].push_back(Candidate{ev.event, std::move(qualified)});
      ++result.tuples_shipped;
    }
  }

  // ---- Join enumeration per trace. ----
  std::vector<Tuple> joined_rows;
  for (const auto& [trace_id, per_stage] : candidates) {
    const TraceGraph& graph = recorder.graph(trace_id);
    bool any_empty = false;
    for (size_t i = 0; i < stages.size(); ++i) {
      if (per_stage[i].empty()) {
        any_empty = true;
        break;
      }
    }
    if (any_empty) {
      continue;
    }

    // assignment[stage] = index into per_stage[stage], or SIZE_MAX.
    std::vector<size_t> assignment(stages.size(), SIZE_MAX);

    std::function<void(size_t)> choose = [&](size_t rpos) {
      if (rpos == reverse_topo.size()) {
        // Complete: concatenate in row order.
        Tuple row;
        for (size_t idx : row_order) {
          row = row.Concat(per_stage[idx][assignment[idx]].tuple);
        }
        joined_rows.push_back(std::move(row));
        return;
      }
      size_t stage_idx = reverse_topo[rpos];
      const NStage& st = stages[stage_idx];
      const std::vector<Candidate>& cands = per_stage[stage_idx];

      // Candidates must happen before every already-assigned successor. All
      // successors are assigned because we process in reverse topo order.
      std::vector<size_t> allowed;
      for (size_t c = 0; c < cands.size(); ++c) {
        bool ok = true;
        for (size_t succ : st.succs) {
          EventId succ_ev = per_stage[succ][assignment[succ]].event;
          if (!graph.HappenedBefore(cands[c].event, succ_ev)) {
            ok = false;
            break;
          }
        }
        if (ok) {
          allowed.push_back(c);
        }
      }

      // Temporal filter relative to each successor: FIRST keeps the earliest
      // N preceding tuples, MOSTRECENT the latest N. `allowed` is already in
      // event order (candidates are chronological), so slicing suffices.
      if (stage_idx != final_idx) {
        switch (st.source.temporal) {
          case TemporalFilter::kAll:
            break;
          case TemporalFilter::kFirst:
          case TemporalFilter::kFirstN: {
            size_t n = st.source.temporal == TemporalFilter::kFirst ? 1 : st.source.n;
            if (allowed.size() > n) {
              allowed.resize(n);
            }
            break;
          }
          case TemporalFilter::kMostRecent:
          case TemporalFilter::kMostRecentN: {
            size_t n = st.source.temporal == TemporalFilter::kMostRecent ? 1 : st.source.n;
            if (allowed.size() > n) {
              allowed.erase(allowed.begin(), allowed.end() - static_cast<ptrdiff_t>(n));
            }
            break;
          }
        }
      }

      for (size_t c : allowed) {
        assignment[stage_idx] = c;
        choose(rpos + 1);
      }
      assignment[stage_idx] = SIZE_MAX;
    };
    choose(0);
  }

  // ---- Lets, Where, Select. ----
  // Lets evaluated in stage topo order then binding order (matches inline
  // evaluation, where a stage's lets run before downstream stages see them).
  std::vector<const LetBinding*> ordered_lets;
  for (size_t idx : topo) {
    for (const auto& let : stages[idx].lets) {
      ordered_lets.push_back(&let);
    }
  }
  for (auto& row : joined_rows) {
    for (const LetBinding* let : ordered_lets) {
      row.Append(let->name, let->expr->Eval(row));
    }
  }

  std::vector<Tuple> filtered;
  filtered.reserve(joined_rows.size());
  for (auto& row : joined_rows) {
    bool pass = true;
    for (const auto& w : flat.where) {
      if (!w->Eval(row).AsBool()) {
        pass = false;
        break;
      }
    }
    if (pass) {
      filtered.push_back(std::move(row));
    }
  }
  result.join_rows = filtered.size();

  const bool aggregated = !flat.group_by.empty() || [&] {
    for (const auto& s : flat.select) {
      if (s.is_aggregate) {
        return true;
      }
    }
    return false;
  }();

  if (!aggregated) {
    // Streaming: project per Select (everything when no Select given).
    for (auto& row : filtered) {
      if (flat.select.empty()) {
        result.rows.push_back(std::move(row));
        continue;
      }
      Tuple out;
      for (const auto& s : flat.select) {
        std::string name = s.expr->op() == ExprOp::kField && !s.has_explicit_alias
                               ? s.expr->field_name()
                               : s.display;
        out.Append(name, s.expr->Eval(row));
      }
      result.rows.push_back(std::move(out));
    }
    return result;
  }

  // Grouped aggregation, mirroring the compiled plan's agent-side shape.
  std::vector<AggSpec> specs;
  int temp_counter = 0;
  std::vector<std::pair<std::string, Expr::Ptr>> agg_exprs;  // Computed inputs.
  for (const auto& s : flat.select) {
    if (!s.is_aggregate) {
      continue;
    }
    if (s.fn == AggFn::kCount && s.expr == nullptr) {
      specs.push_back(AggSpec{AggFn::kCount, "", s.display, false});
    } else if (s.expr->op() == ExprOp::kField) {
      specs.push_back(AggSpec{s.fn, s.expr->field_name(), s.display, false});
    } else {
      std::string name = "$naive" + std::to_string(temp_counter++);
      agg_exprs.emplace_back(name, s.expr);
      specs.push_back(AggSpec{s.fn, name, s.display, false});
    }
  }
  Aggregator agg(flat.group_by, specs);
  for (auto& row : filtered) {
    for (const auto& [name, expr] : agg_exprs) {
      row.Append(name, expr->Eval(row));
    }
    agg.AddInput(row);
  }
  result.rows = agg.Finalize();
  return result;
}

}  // namespace pivot
