#include "src/query/compiler.h"

#include <algorithm>
#include <functional>
#include <set>

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

bool IsDefaultExport(std::string_view name) {
  for (const auto& d : kDefaultExports) {
    if (name == d.name) {
      return true;
    }
  }
  return false;
}

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
    if (!IsDefaultExport(member) && registry_ != nullptr) {
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
  auto collect_expr = [&](const Expr::Ptr& e) {
    std::vector<std::string> fs;
    e->CollectFields(&fs);
    for (auto& f : fs) {
      AddUnique(&all_fields, f);
    }
  };
  for (const auto& w : flat.where) {
    collect_expr(w);
  }
  for (const auto& g : flat.group_by) {
    AddUnique(&all_fields, g);
  }
  for (const auto& s : flat.select) {
    if (s.expr != nullptr) {
      collect_expr(s.expr);
    }
  }
  for (const auto& st : stages) {
    for (const auto& let : st.lets) {
      collect_expr(let.expr);
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

  // Without projection pushdown (ablation baseline), every stage observes all
  // of its tracepoints' exports plus the defaults — Π is not pushed toward
  // the source, so whole tuples flow through packs and emits. A query with
  // neither Select nor GroupBy projects everything it observes, so it too
  // observes whole tuples, as the naive evaluator's rows are.
  const bool select_all = flat.select.empty() && flat.group_by.empty();
  if ((!options_.push_projection && registry_ != nullptr) || select_all) {
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
  // fields are available; without selection pushdown everything runs at the
  // final stage (whose availability is a superset by construction).
  for (const auto& w : flat.where) {
    bool placed = false;
    if (options_.push_selection) {
      for (size_t idx : topo) {
        if (w->FieldsSubsetOf(stages[idx].available)) {
          stages[idx].filters.push_back(w);
          placed = true;
          break;
        }
      }
    } else if (w->FieldsSubsetOf(stages[final_idx].available)) {
      stages[final_idx].filters.push_back(w);
      placed = true;
    }
    if (!placed) {
      return InvalidArgumentError("Where clause references unavailable fields: " + w->ToString());
    }
  }

  // ---- 6. Select / GroupBy consistency. ----
  const bool has_aggs = [&] {
    for (const auto& s : flat.select) {
      if (s.is_aggregate) {
        return true;
      }
    }
    return false;
  }();
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

  // ---- 7. Aggregation pushdown (Table 3 A/GA rules). ----
  // Strict, always-correct rule: push iff (a) every select aggregate's inputs
  // are fully available at one shared non-final stage `s`, (b) `s` feeds the
  // final stage directly and nothing else, (c) no COUNT (its multiplicity
  // depends on the un-collapsed join), (d) s's temporal filter is kAll, and
  // (e) every field of `s`'s subtree needed downstream is a group-by field.
  size_t pushed_stage = SIZE_MAX;
  if (options_.push_aggregation && has_aggs) {
    bool eligible = true;
    size_t candidate = SIZE_MAX;
    for (const auto& s : flat.select) {
      if (!s.is_aggregate) {
        continue;
      }
      if (s.fn == AggFn::kCount && s.expr == nullptr) {
        eligible = false;  // (c)
        break;
      }
      // Earliest stage whose availability covers the aggregate's inputs.
      size_t origin = SIZE_MAX;
      for (size_t idx : topo) {
        if (s.expr->FieldsSubsetOf(stages[idx].available)) {
          origin = idx;
          break;
        }
      }
      if (origin == SIZE_MAX || origin == final_idx) {
        eligible = false;
        break;
      }
      if (candidate == SIZE_MAX) {
        candidate = origin;
      } else if (candidate != origin) {
        eligible = false;  // (a): all aggregates at one stage.
        break;
      }
    }
    if (eligible && candidate != SIZE_MAX) {
      const Stage& st = stages[candidate];
      if (st.succs.size() != 1 || st.succs[0] != final_idx ||
          st.source.temporal != TemporalFilter::kAll) {
        eligible = false;  // (b), (d)
      }
    }
    if (eligible && candidate != SIZE_MAX) {
      // (e): fields from this stage's subtree needed downstream, excluding
      // aggregate inputs, must all be group-by fields.
      std::set<std::string> downstream_needs;
      auto note_expr = [&](const Expr::Ptr& e) {
        std::vector<std::string> fs;
        e->CollectFields(&fs);
        for (auto& f : fs) {
          downstream_needs.insert(std::move(f));
        }
      };
      for (size_t idx : topo) {
        // Only stages after `candidate` matter; approximate with "not in
        // candidate's ancestry" by checking topo position.
        if (idx == candidate) {
          continue;
        }
        bool is_after = std::find(topo.begin(), topo.end(), idx) >
                        std::find(topo.begin(), topo.end(), candidate);
        if (!is_after) {
          continue;
        }
        for (const auto& f : stages[idx].filters) {
          note_expr(f);
        }
        for (const auto& let : stages[idx].lets) {
          note_expr(let.expr);
        }
      }
      // Group-by fields are exempt: an aggregated bag keeps them as groups.
      for (const auto& s : flat.select) {
        if (!s.is_aggregate && s.expr != nullptr) {
          note_expr(s.expr);
        }
      }
      for (const auto& f : downstream_needs) {
        if (Contains(stages[candidate].available, f) && !Contains(flat.group_by, f)) {
          eligible = false;
          break;
        }
      }
      if (eligible) {
        pushed_stage = candidate;
      }
    }
  }

  if (pushed_stage != SIZE_MAX) {
    Stage& st = stages[pushed_stage];
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
  // needed_after(i): fields consumed strictly after stage i.
  {
    // Fields the final emit consumes.
    std::vector<std::string> emit_needs;
    for (const auto& g : flat.group_by) {
      AddUnique(&emit_needs, g);
    }
    for (const auto& s : flat.select) {
      if (s.expr != nullptr) {
        std::vector<std::string> fs;
        s.expr->CollectFields(&fs);
        for (auto& f : fs) {
          AddUnique(&emit_needs, f);
        }
      }
    }

    for (size_t pos = 0; pos < topo.size(); ++pos) {
      size_t idx = topo[pos];
      Stage& st = stages[idx];
      if (st.is_final || st.agg_pushed) {
        continue;
      }
      if (!options_.push_projection || select_all) {
        st.pack_fields = st.available;
      } else {
        std::vector<std::string> needed_after = emit_needs;
        for (size_t later = pos + 1; later < topo.size(); ++later) {
          const Stage& lst = stages[topo[later]];
          for (const auto& f : lst.filters) {
            std::vector<std::string> fs;
            f->CollectFields(&fs);
            for (auto& x : fs) {
              AddUnique(&needed_after, x);
            }
          }
          for (const auto& let : lst.lets) {
            std::vector<std::string> fs;
            let.expr->CollectFields(&fs);
            for (auto& x : fs) {
              AddUnique(&needed_after, x);
            }
          }
          // A later pushed-aggregation stage consumes its raw inputs.
          for (const auto& let : lst.agg_lets) {
            std::vector<std::string> fs;
            let.expr->CollectFields(&fs);
            for (auto& x : fs) {
              AddUnique(&needed_after, x);
            }
          }
          for (const auto& spec : lst.pushed_aggs) {
            if (!spec.input.empty()) {
              AddUnique(&needed_after, spec.input);
            }
          }
        }
        for (const auto& f : st.available) {
          if (Contains(needed_after, f)) {
            st.pack_fields.push_back(f);
          }
        }
      }
      // Retention semantics from the source's temporal filter.
      switch (st.source.temporal) {
        case TemporalFilter::kAll:
          st.pack_spec = BagSpec::All();
          break;
        case TemporalFilter::kFirst:
          st.pack_spec = BagSpec::First(1);
          break;
        case TemporalFilter::kFirstN:
          st.pack_spec = BagSpec::First(st.source.n);
          break;
        case TemporalFilter::kMostRecent:
          st.pack_spec = BagSpec::Recent(1);
          break;
        case TemporalFilter::kMostRecentN:
          st.pack_spec = BagSpec::Recent(st.source.n);
          break;
      }
    }
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
      if (pushed_stage != SIZE_MAX) {
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
    for (const Advice::Op& op : adv->ops()) {
      Advice::Op copy = op;
      switch (op.kind) {
        case Advice::OpKind::kUnpack:
        case Advice::OpKind::kPack:
          copy.bag = remap_bag(op.bag);
          break;
        case Advice::OpKind::kEmit: {
          // The final stage reports one count row per would-be emitted tuple.
          Advice::Op let;
          let.kind = Advice::OpKind::kLet;
          let.let_name = "$stage";
          let.expr = Expr::Literal(Value("emit@" + tp));
          ops.push_back(std::move(let));
          copy.query_id = shadow_id;
          copy.fields = {"$stage"};
          ops.push_back(std::move(copy));
          continue;
        }
        default:
          break;
      }
      bool was_pack = op.kind == Advice::OpKind::kPack;
      ops.push_back(std::move(copy));
      if (was_pack) {
        // Count each tuple entering the baggage at this stage.
        Advice::Op let;
        let.kind = Advice::OpKind::kLet;
        let.let_name = "$stage";
        let.expr = Expr::Literal(Value("pack@" + tp));
        ops.push_back(std::move(let));
        Advice::Op emit;
        emit.kind = Advice::OpKind::kEmit;
        emit.query_id = shadow_id;
        emit.fields = {"$stage"};
        ops.push_back(std::move(emit));
      }
    }
    out.advice.emplace_back(tp, std::make_shared<const Advice>(std::move(ops)));
  }
  return out;
}

std::string CompiledQuery::Explain() const {
  std::string out = "Query " + std::to_string(query_id) + ":\n";
  for (const auto& [tp, adv] : advice) {
    out += "  at " + tp + ":\n";
    std::string listing = adv->ToString();
    // Indent each line.
    size_t start = 0;
    while (start < listing.size()) {
      size_t end = listing.find('\n', start);
      if (end == std::string::npos) {
        end = listing.size();
      }
      out += "    " + listing.substr(start, end - start) + "\n";
      start = end + 1;
    }
  }
  if (plan.aggregated()) {
    out += "  result: group by [";
    for (size_t i = 0; i < plan.group_fields.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      out += plan.group_fields[i];
    }
    out += "], aggregates [";
    for (size_t i = 0; i < plan.aggs.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      out += plan.aggs[i].output;
      if (plan.aggs[i].from_state) {
        out += " (combined from packed state)";
      }
    }
    out += "]\n";
  } else {
    out += "  result: streaming tuples\n";
  }
  return out;
}

}  // namespace pivot
