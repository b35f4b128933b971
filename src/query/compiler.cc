#include "src/query/compiler.h"

#include <algorithm>
#include <iterator>
#include <optional>

#include "src/common/strings.h"
#include "src/query/flatten.h"

namespace pivot {

// ---------------------------------------------------------------------------
// QueryRegistry

Status QueryRegistry::Register(std::string name, Query q) {
  if (queries_.count(name) != 0) {
    return AlreadyExistsError("query already registered: " + name);
  }
  queries_.emplace(std::move(name), std::move(q));
  return Status::Ok();
}

const Query* QueryRegistry::Find(std::string_view name) const {
  auto it = queries_.find(name);
  return it == queries_.end() ? nullptr : &it->second;
}

bool TracepointPatternMatch(std::string_view pattern, std::string_view name) {
  // Iterative glob match with backtracking ('*' any run, '?' any one char).
  size_t p = 0;
  size_t n = 0;
  size_t star = std::string_view::npos;
  size_t star_n = 0;
  while (n < name.size()) {
    if (p < pattern.size() && (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_n = n;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      n = ++star_n;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') {
    ++p;
  }
  return p == pattern.size();
}

namespace {

// ---------------------------------------------------------------------------
// Stage model

struct Stage {
  SourceRef source;
  std::vector<size_t> preds;
  std::vector<size_t> succs;
  std::vector<LetBinding> lets;        // In binding order.
  std::vector<std::string> observe;    // Qualified fields observed here.
  std::vector<Expr::Ptr> filters;      // Where clauses evaluated here.
  std::vector<std::string> available;  // All fields visible at/after this stage.
  std::vector<std::string> pack_fields;
  BagSpec pack_spec;
  BagKey bag = 0;
  bool is_final = false;
  bool agg_pushed = false;
  std::vector<AggSpec> pushed_aggs;    // Pack-side aggregate specs when pushed.
  std::vector<LetBinding> agg_lets;    // Lets materializing pushed agg inputs.
};

void AddUnique(std::vector<std::string>* v, const std::string& s) {
  if (std::find(v->begin(), v->end(), s) == v->end()) {
    v->push_back(s);
  }
}

bool Contains(const std::vector<std::string>& v, const std::string& s) {
  return std::find(v.begin(), v.end(), s) != v.end();
}

// Adds each field `e` reads to `*fields`, once.
void AddFieldsOf(const Expr::Ptr& e, std::vector<std::string>* fields) {
  std::vector<std::string> fs;
  e->CollectFields(&fs);
  for (const auto& f : fs) {
    AddUnique(fields, f);
  }
}

// What a packing stage's bag retains, from its source's temporal filter.
BagSpec RetentionSpec(const SourceRef& source) {
  switch (source.temporal) {
    case TemporalFilter::kAll:
      break;
    case TemporalFilter::kFirst:
      return BagSpec::First(1);
    case TemporalFilter::kFirstN:
      return BagSpec::First(source.n);
    case TemporalFilter::kMostRecent:
      return BagSpec::Recent(1);
    case TemporalFilter::kMostRecentN:
      return BagSpec::Recent(source.n);
  }
  return BagSpec::All();
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryCompiler

QueryCompiler::QueryCompiler(const TracepointRegistry* registry,
                             const QueryRegistry* named_queries, Options options)
    : registry_(registry), named_queries_(named_queries), options_(options) {}

Result<CompiledQuery> QueryCompiler::Compile(const Query& q, uint64_t query_id) const {
  // ---- 1. Inline subqueries into a flat source DAG. ----
  FlatQuery flat;
  PIVOT_RETURN_IF_ERROR(FlattenQuery(q, named_queries_, &flat));

  // ---- 1b. Expand glob tracepoint patterns against the schema registry. ----
  auto expand_patterns = [&](SourceRef* src) -> Status {
    std::vector<std::string> expanded;
    for (const auto& name : src->tracepoints) {
      if (name.find('*') == std::string::npos && name.find('?') == std::string::npos) {
        expanded.push_back(name);
        continue;
      }
      if (registry_ == nullptr) {
        return InvalidArgumentError("tracepoint patterns require a schema registry: " + name);
      }
      bool matched = false;
      for (const auto& candidate : registry_->Names()) {
        if (TracepointPatternMatch(name, candidate)) {
          AddUnique(&expanded, candidate);
          matched = true;
        }
      }
      if (!matched) {
        return NotFoundError("no tracepoints match pattern: " + name);
      }
    }
    src->tracepoints = std::move(expanded);
    return Status::Ok();
  };
  PIVOT_RETURN_IF_ERROR(expand_patterns(&flat.from));
  for (auto& j : flat.joins) {
    PIVOT_RETURN_IF_ERROR(expand_patterns(&j.source));
  }

  // ---- 2. Stages and alias resolution. ----
  std::vector<Stage> stages;
  std::map<std::string, size_t> alias_to_stage;
  auto add_stage = [&](const SourceRef& src) -> Status {
    if (alias_to_stage.count(src.alias) != 0) {
      return InvalidArgumentError("duplicate alias: " + src.alias);
    }
    alias_to_stage[src.alias] = stages.size();
    Stage st;
    st.source = src;
    stages.push_back(std::move(st));
    return Status::Ok();
  };
  for (const auto& j : flat.joins) {
    PIVOT_RETURN_IF_ERROR(add_stage(j.source));
  }
  if (flat.from.temporal != TemporalFilter::kAll) {
    // Temporal filters select which packed tuples join; the From source never
    // packs, so a filter there would be silently meaningless.
    return InvalidArgumentError("temporal filters cannot apply to the From source: " +
                                flat.from.alias);
  }
  PIVOT_RETURN_IF_ERROR(add_stage(flat.from));
  size_t final_idx = stages.size() - 1;
  stages[final_idx].is_final = true;

  // Happened-before edges (left ≺ right).
  for (const auto& j : flat.joins) {
    auto li = alias_to_stage.find(j.left);
    auto ri = alias_to_stage.find(j.right);
    if (li == alias_to_stage.end() || ri == alias_to_stage.end()) {
      return InvalidArgumentError("On clause references unknown alias: " + j.left + " -> " +
                                  j.right);
    }
    if (li->second == ri->second) {
      return InvalidArgumentError("source cannot happen before itself: " + j.left);
    }
    stages[li->second].succs.push_back(ri->second);
    stages[ri->second].preds.push_back(li->second);
  }

  // Topological order (Kahn). The From stage must come last and every other
  // stage must feed into some later stage.
  std::vector<size_t> topo;
  {
    std::vector<size_t> indeg(stages.size(), 0);
    for (const auto& st : stages) {
      for (size_t s : st.succs) {
        ++indeg[s];
      }
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
  }
  if (!stages[final_idx].succs.empty()) {
    return InvalidArgumentError("the From source must not happen before a joined source");
  }
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i != final_idx && stages[i].succs.empty()) {
      return InvalidArgumentError("joined source '" + stages[i].source.alias +
                                  "' is not ordered before any other source (missing On clause)");
    }
  }
  // Move the final stage to the end of the topological order.
  topo.erase(std::remove(topo.begin(), topo.end(), final_idx), topo.end());
  topo.push_back(final_idx);

  // Assign bag keys to packing stages.
  for (size_t i = 0; i < stages.size(); ++i) {
    stages[i].bag = query_id * kBagKeysPerQuery + i;
  }

  // Attach lets to their stages (in declaration order).
  std::map<std::string, size_t> let_to_stage;  // let name -> stage
  for (const auto& let : flat.lets) {
    auto it = alias_to_stage.find(let.alias);
    if (it == alias_to_stage.end()) {
      return InternalError("let bound to unknown alias: " + let.alias);
    }
    stages[it->second].lets.push_back(let);
    let_to_stage[let.name] = it->second;
  }

  // ---- 3. Validate tracepoints and resolve field attribution. ----
  for (const auto& st : stages) {
    for (const auto& tp_name : st.source.tracepoints) {
      if (registry_ != nullptr && registry_->Find(tp_name) == nullptr) {
        return NotFoundError("unknown tracepoint: " + tp_name);
      }
    }
  }

  // Resolves a qualified field to its stage, or returns an error.
  auto stage_of_field = [&](const std::string& field) -> Result<size_t> {
    auto let_it = let_to_stage.find(field);
    if (let_it != let_to_stage.end()) {
      return let_it->second;
    }
    size_t dot = field.find('.');
    if (dot == std::string::npos) {
      return InvalidArgumentError("unknown field: " + field);
    }
    // Aliases of inlined subqueries contain '$' and their fields two dots
    // never appear at the user level; attribution is by longest alias prefix.
    std::string alias = field.substr(0, dot);
    auto it = alias_to_stage.find(alias);
    if (it == alias_to_stage.end()) {
      return InvalidArgumentError("field references unknown alias: " + field);
    }
    std::string member = field.substr(dot + 1);
    if (FindDefaultExport(member) == nullptr && registry_ != nullptr) {
      for (const auto& tp_name : stages[it->second].source.tracepoints) {
        const Tracepoint* tp = registry_->Find(tp_name);
        if (tp != nullptr && !Contains(tp->def().exports, member)) {
          return InvalidArgumentError("tracepoint " + tp_name + " does not export '" + member +
                                      "' (referenced as " + field + ")");
        }
      }
    }
    return it->second;
  };

  // ---- 4. Collect referenced fields and attribute them. ----
  std::vector<std::string> all_fields;
  for (const auto& w : flat.where) {
    AddFieldsOf(w, &all_fields);
  }
  for (const auto& g : flat.group_by) {
    AddUnique(&all_fields, g);
  }
  for (const auto& s : flat.select) {
    if (s.expr != nullptr) {
      AddFieldsOf(s.expr, &all_fields);
    }
  }
  for (const auto& st : stages) {
    for (const auto& let : st.lets) {
      AddFieldsOf(let.expr, &all_fields);
    }
  }

  for (const auto& f : all_fields) {
    Result<size_t> owner = stage_of_field(f);
    if (!owner.ok()) {
      return owner.status();
    }
    // Let outputs are produced by Lets, not observed from exports.
    if (let_to_stage.count(f) != 0) {
      continue;
    }
    AddUnique(&stages[*owner].observe, f);
  }

  // Without pushdown (the ablation baseline), every stage observes all of its
  // tracepoints' exports plus the defaults — Π is not pushed toward the
  // source, so whole tuples flow through packs and emits. A query with
  // neither Select nor GroupBy projects everything it observes, so it too
  // observes whole tuples, as the naive evaluator's rows are.
  const bool select_all = flat.select.empty() && flat.group_by.empty();
  if ((!options_.pushdown && registry_ != nullptr) || select_all) {
    for (Stage& st : stages) {
      for (const auto& tp_name : st.source.tracepoints) {
        const Tracepoint* tp = registry_ != nullptr ? registry_->Find(tp_name) : nullptr;
        if (tp == nullptr) {
          continue;
        }
        for (const auto& e : tp->def().exports) {
          AddUnique(&st.observe, st.source.alias + "." + e);
        }
      }
      for (const auto& d : kDefaultExports) {
        AddUnique(&st.observe, st.source.alias + "." + d.name);
      }
    }
  }

  // ---- 5. Availability (assuming full pass-through) and selection pushdown. ----
  for (size_t idx : topo) {
    Stage& st = stages[idx];
    st.available = st.observe;
    for (size_t p : st.preds) {
      for (const auto& f : stages[p].available) {
        AddUnique(&st.available, f);
      }
    }
    for (const auto& let : st.lets) {
      AddUnique(&st.available, let.name);
    }
  }

  // Each Where clause runs at the earliest stage (topo order) where all its
  // fields are available; without pushdown everything runs at the final
  // stage (whose availability is a superset by construction).
  for (const auto& w : flat.where) {
    auto at = std::find_if(options_.pushdown ? topo.begin() : topo.end() - 1, topo.end(),
                           [&](size_t idx) { return w->FieldsSubsetOf(stages[idx].available); });
    if (at == topo.end()) {
      return InvalidArgumentError("Where clause references unavailable fields: " + w->ToString());
    }
    stages[*at].filters.push_back(w);
  }

  // ---- 6. Select / GroupBy consistency. ----
  const bool has_aggs = std::any_of(flat.select.begin(), flat.select.end(),
                                    [](const SelectItem& s) { return s.is_aggregate; });
  const bool aggregated = has_aggs || !flat.group_by.empty();

  for (const auto& g : flat.group_by) {
    if (!Contains(stages[final_idx].available, g)) {
      return InvalidArgumentError("GroupBy field not available: " + g);
    }
  }
  if (aggregated) {
    for (const auto& s : flat.select) {
      if (s.is_aggregate) {
        continue;
      }
      if (s.expr->op() != ExprOp::kField || !Contains(flat.group_by, s.expr->field_name())) {
        return InvalidArgumentError(
            "non-aggregate Select item must be a GroupBy field in an aggregating query: " +
            s.display);
      }
    }
  }
  for (const auto& s : flat.select) {
    if (s.expr != nullptr && !s.expr->FieldsSubsetOf(stages[final_idx].available)) {
      return InvalidArgumentError("Select item references unavailable fields: " + s.display);
    }
  }

  // Fields read strictly after topo position `pos`: by the filters and lets
  // of later stages, and by a later pushed aggregation's lets and inputs.
  auto used_after = [&](size_t pos) {
    std::vector<std::string> used;
    for (size_t later = pos + 1; later < topo.size(); ++later) {
      const Stage& st = stages[topo[later]];
      for (const auto& f : st.filters) {
        AddFieldsOf(f, &used);
      }
      for (const auto& let : st.lets) {
        AddFieldsOf(let.expr, &used);
      }
      for (const auto& let : st.agg_lets) {
        AddFieldsOf(let.expr, &used);
      }
      for (const auto& spec : st.pushed_aggs) {
        if (!spec.input.empty()) {
          AddUnique(&used, spec.input);
        }
      }
    }
    return used;
  };

  // ---- 7. Aggregation pushdown (Table 3 A/GA rules). ----
  // Strict, always-correct rule: push iff (a) every select aggregate's inputs
  // are fully available at one shared non-final stage `s`, (b) `s` feeds the
  // final stage directly and nothing else, (c) no COUNT (its multiplicity
  // depends on the un-collapsed join), (d) s's temporal filter is kAll, and
  // (e) every field of `s`'s subtree read by a later stage is a group-by
  // field. Non-aggregate Select items are group-by fields (step 6), which an
  // aggregated bag keeps as groups.
  auto pushdown_stage = [&]() -> std::optional<size_t> {
    if (!options_.pushdown || !has_aggs) {
      return std::nullopt;
    }
    size_t pos = SIZE_MAX;  // The stage's topo position.
    for (const auto& s : flat.select) {
      if (!s.is_aggregate) {
        continue;
      }
      if (s.fn == AggFn::kCount && s.expr == nullptr) {
        return std::nullopt;  // (c)
      }
      // Earliest stage whose availability covers the aggregate's inputs.
      auto origin = std::find_if(topo.begin(), topo.end() - 1, [&](size_t idx) {
        return s.expr->FieldsSubsetOf(stages[idx].available);
      });
      const size_t origin_pos = origin - topo.begin();
      if (origin == topo.end() - 1 || (pos != SIZE_MAX && pos != origin_pos)) {
        return std::nullopt;  // At the final stage, or (a).
      }
      pos = origin_pos;
    }
    const Stage& st = stages[topo[pos]];
    if (st.succs.size() != 1 || st.succs[0] != final_idx ||
        st.source.temporal != TemporalFilter::kAll) {
      return std::nullopt;  // (b), (d)
    }
    for (const auto& f : used_after(pos)) {
      if (Contains(st.available, f) && !Contains(flat.group_by, f)) {
        return std::nullopt;  // (e)
      }
    }
    return topo[pos];
  };
  const std::optional<size_t> pushed_stage = pushdown_stage();

  if (pushed_stage) {
    Stage& st = stages[*pushed_stage];
    st.agg_pushed = true;
    std::vector<std::string> bag_groups;
    for (const auto& g : flat.group_by) {
      if (Contains(st.available, g)) {
        bag_groups.push_back(g);
      }
    }
    int let_counter = 0;
    for (const auto& s : flat.select) {
      if (!s.is_aggregate) {
        continue;
      }
      std::string input;
      if (s.expr->op() == ExprOp::kField) {
        input = s.expr->field_name();
      } else {
        input = "$agg" + std::to_string(let_counter++);
        st.agg_lets.push_back(LetBinding{st.source.alias, input, s.expr});
      }
      st.pushed_aggs.push_back(AggSpec{s.fn, input, s.display, /*from_state=*/false});
    }
    st.pack_spec = BagSpec::Aggregated(std::move(bag_groups), st.pushed_aggs);
  }

  // ---- 8. Projection pushdown: pack only what later stages need. ----
  std::vector<std::string> emit_reads = flat.group_by;  // Fields the final emit reads.
  for (const auto& s : flat.select) {
    if (s.expr != nullptr) {
      AddFieldsOf(s.expr, &emit_reads);
    }
  }
  for (size_t pos = 0; pos < topo.size(); ++pos) {
    Stage& st = stages[topo[pos]];
    if (st.is_final || st.agg_pushed) {
      continue;
    }
    st.pack_spec = RetentionSpec(st.source);
    if (!options_.pushdown || select_all) {
      st.pack_fields = st.available;
      continue;
    }
    std::vector<std::string> needed = used_after(pos);
    needed.insert(needed.end(), emit_reads.begin(), emit_reads.end());
    std::copy_if(st.available.begin(), st.available.end(), std::back_inserter(st.pack_fields),
                 [&](const std::string& f) { return Contains(needed, f); });
  }

  // ---- 9. Generate advice. ----
  CompiledQuery out;
  out.query_id = query_id;
  ResultPlan& plan = out.plan;
  plan.group_fields = flat.group_by;

  int emit_let_counter = 0;
  std::vector<LetBinding> emit_lets;  // Select-expression columns at the final stage.

  for (const auto& s : flat.select) {
    if (s.is_aggregate) {
      if (pushed_stage) {
        plan.aggs.push_back(AggSpec{s.fn, s.display, s.display, /*from_state=*/true});
      } else if (s.fn == AggFn::kCount && s.expr == nullptr) {
        plan.aggs.push_back(AggSpec{AggFn::kCount, "", s.display, false});
      } else if (s.expr->op() == ExprOp::kField) {
        plan.aggs.push_back(AggSpec{s.fn, s.expr->field_name(), s.display, false});
      } else {
        std::string name = "$emit" + std::to_string(emit_let_counter++);
        emit_lets.push_back(LetBinding{flat.from.alias, name, s.expr});
        plan.aggs.push_back(AggSpec{s.fn, name, s.display, false});
      }
    } else if (!aggregated && s.expr->op() != ExprOp::kField) {
      emit_lets.push_back(LetBinding{flat.from.alias, s.display, s.expr});
    }
  }

  for (size_t idx : topo) {
    Stage& st = stages[idx];

    AdviceBuilder builder;
    if (st.source.sample_rate < 1.0) {
      builder.Sample(st.source.sample_rate);
    }
    std::vector<std::pair<std::string, std::string>> observe_pairs;
    for (const auto& f : st.observe) {
      size_t dot = f.find('.');
      observe_pairs.emplace_back(f.substr(dot + 1), f);
    }
    builder.Observe(std::move(observe_pairs));
    for (size_t p : st.preds) {
      builder.Unpack(stages[p].bag);
    }
    for (const auto& let : st.lets) {
      builder.Let(let.name, let.expr);
    }
    for (const auto& f : st.filters) {
      builder.Filter(f);
    }
    if (st.is_final) {
      for (const auto& let : emit_lets) {
        builder.Let(let.name, let.expr);
      }
      std::vector<std::string> emit_fields;
      if (!aggregated) {
        // Streaming query: project to the Select outputs (all columns when no
        // Select was given).
        for (const auto& s : flat.select) {
          emit_fields.push_back(s.expr->op() == ExprOp::kField && !s.has_explicit_alias
                                    ? s.expr->field_name()
                                    : s.display);
        }
      }
      builder.Emit(query_id, std::move(emit_fields));
    } else {
      for (const auto& let : st.agg_lets) {
        builder.Let(let.name, let.expr);
      }
      builder.Pack(st.bag, st.pack_spec, st.pack_fields);
    }
    Advice::Ptr advice = builder.Build();
    for (const auto& tp_name : st.source.tracepoints) {
      out.advice.emplace_back(tp_name, advice);
    }
  }
  return out;
}

CompiledQuery MakeCountingQuery(const CompiledQuery& original, uint64_t shadow_id) {
  CompiledQuery out;
  out.query_id = shadow_id;
  out.plan = ResultPlan{{"$stage"}, {AggSpec{AggFn::kCount, "", "COUNT", false}}};

  auto remap_bag = [shadow_id](BagKey bag) {
    return shadow_id * kBagKeysPerQuery + bag % kBagKeysPerQuery;
  };

  for (const auto& [tp, adv] : original.advice) {
    std::vector<Advice::Op> ops;
    // Reports one ($stage, COUNT) row per tuple reaching here.
    auto count_as = [&](const std::string& stage) {
      Advice::Op& let = ops.emplace_back();
      let.kind = Advice::OpKind::kLet;
      let.let_name = "$stage";
      let.expr = Expr::Literal(Value(stage + "@" + tp));
      Advice::Op& emit = ops.emplace_back();
      emit.kind = Advice::OpKind::kEmit;
      emit.fields = {"$stage"};
      emit.query_id = shadow_id;
    };
    for (const Advice::Op& op : adv->ops()) {
      if (op.kind == Advice::OpKind::kEmit) {
        count_as("emit");  // The final stage counts each would-be emitted tuple.
        continue;
      }
      Advice::Op& copy = ops.emplace_back(op);
      if (op.kind == Advice::OpKind::kUnpack || op.kind == Advice::OpKind::kPack) {
        copy.bag = remap_bag(op.bag);
      }
      if (op.kind == Advice::OpKind::kPack) {
        count_as("pack");  // Counts each tuple entering the baggage here.
      }
    }
    out.advice.emplace_back(tp, std::make_shared<const Advice>(std::move(ops)));
  }
  return out;
}

std::string CompiledQuery::Explain() const {
  std::string out = "Query " + std::to_string(query_id) + ":\n";
  for (const auto& [tp, adv] : advice) {
    out += "  at " + tp + ":\n    " + StrJoin(StrSplit(adv->ToString(), '\n'), "\n    ") + "\n";
  }
  if (!plan.aggregated()) {
    return out + "  result: streaming tuples\n";
  }
  std::vector<std::string> aggs;
  for (const AggSpec& agg : plan.aggs) {
    aggs.push_back(agg.output + (agg.from_state ? " (combined from packed state)" : ""));
  }
  return out + "  result: group by [" + StrJoin(plan.group_fields, ", ") + "], aggregates [" +
         StrJoin(aggs, ", ") + "]\n";
}

}  // namespace pivot
