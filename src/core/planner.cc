#include "core/planner.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <unordered_map>

#include "core/builder.h"
#include "core/infer.h"
#include "core/physical.h"
#include "obs/metrics.h"

namespace excess {

namespace {

struct TreeKey {
  uint64_t hash;
  ExprPtr tree;
};

using Fields = std::optional<std::vector<std::string>>;

/// Field names, in order, of the tuples constructor `c` builds.
Fields CtorFields(const ExprPtr& c) {
  switch (c->kind()) {
    case OpKind::kTupMake:
      return Fields{{c->name().empty() ? "_1" : c->name()}};
    case OpKind::kTupCat: {
      Fields a = CtorFields(c->child(0));
      Fields b = CtorFields(c->child(1));
      if (!a.has_value() || !b.has_value()) return std::nullopt;
      a->insert(a->end(), b->begin(), b->end());
      return a;
    }
    case OpKind::kProject:
      return c->names();
    case OpKind::kComp:
      return CtorFields(c->child(0));
    default:
      return std::nullopt;
  }
}

/// Row fields of a plan whose root (under DE) applies a tuple constructor,
/// the common shape, read off the plan without type inference.
Fields BuiltRowFields(const ExprPtr& plan) {
  const Expr* e = plan.get();
  if (e->kind() == OpKind::kDupElim) e = e->child(0).get();
  if (e->kind() != OpKind::kSetApply) return std::nullopt;
  return CtorFields(e->sub());
}

/// Field names of a result's rows: the tuples directly inside the result
/// multiset, or inside its groups (`by`). Empty for other results.
std::vector<std::string> RowFields(const SchemaPtr& result) {
  std::vector<std::string> names;
  if (!result->is_set() || result->elem() == nullptr) return names;
  SchemaPtr row = result->elem();
  if (row->is_set()) row = row->elem();
  if (row == nullptr || !row->is_tup()) return names;
  for (const Field& f : row->fields()) names.push_back(f.name);
  return names;
}

/// Tuples compare by field name, so rules such as tupcat-commute (23) may
/// pick a plan that builds the result rows with their fields in another
/// order. Clients read columns by position: when the orders differ, the
/// plan gets a projection that restores the query's.
ExprPtr KeepRowOrder(const Database* db, const ExprPtr& query,
                     ExprPtr plan) {
  std::vector<std::string> names;
  bool grouped = false;
  Fields want = BuiltRowFields(query);
  Fields got = BuiltRowFields(plan);
  if (want.has_value() && got.has_value()) {
    if (*want == *got) return plan;
    names = std::move(*want);
  } else {
    // Other shapes (grouped results, say) are compared by their types.
    TypeInference infer(db);
    auto want_type = infer.Infer(query);
    auto got_type = infer.Infer(plan);
    if (!want_type.ok() || !got_type.ok()) return plan;
    names = RowFields(*want_type);
    if (names.size() < 2 || RowFields(*got_type) == names) return plan;
    grouped = (*want_type)->elem()->is_set();
  }
  ExprPtr restore = alg::Project(std::move(names), alg::Input());
  if (grouped) restore = alg::SetApply(std::move(restore), alg::Input());
  return alg::SetApply(std::move(restore), std::move(plan));
}

}  // namespace

Result<std::vector<PlanChoice>> Planner::Enumerate(const ExprPtr& query) {
  if (query == nullptr) return Status::Invalid("Enumerate on null query");

  // Phase 1: heuristic fixpoint.
  Rewriter heuristic(db_, RuleSet::Heuristic());
  heuristic.set_observer(observer_);
  EXA_ASSIGN_OR_RETURN(ExprPtr seed, heuristic.Rewrite(query));
  heuristic_trace_ = heuristic.applied();

  CostModel cost(db_, options_.cost_params);
  std::vector<PlanChoice> choices;
  auto add_choice = [&](const ExprPtr& plan) -> Status {
    EXA_ASSIGN_OR_RETURN(CostEstimate est, cost.Estimate(plan));
    choices.push_back({plan, est});
    return Status::OK();
  };
  EXA_RETURN_NOT_OK(add_choice(seed));

  // Phase 2: best-first exploration of the full rule set. The frontier is
  // seeded with BOTH the heuristic fixpoint and the original tree: some
  // rewrites (e.g. rule 10 feeding rule 26) only match shapes the
  // always-beneficial phase already collapsed, so restricting the search
  // to the fixpoint would make parts of the plan space unreachable.
  if (options_.search_budget > 0) {
    Rewriter all(db_, RuleSet::All());
    // Memo on (hash, deep equality).
    std::unordered_map<uint64_t, std::vector<ExprPtr>> seen;
    auto mark_seen = [&](const ExprPtr& t) -> bool {
      auto& bucket = seen[t->Hash()];
      for (const auto& prev : bucket) {
        if (prev->Equals(*t)) return false;
      }
      bucket.push_back(t);
      return true;
    };
    mark_seen(seed);

    auto cmp = [](const PlanChoice& a, const PlanChoice& b) {
      return a.estimate.total > b.estimate.total;  // min-heap
    };
    std::priority_queue<PlanChoice, std::vector<PlanChoice>, decltype(cmp)>
        frontier(cmp);
    frontier.push(choices.front());
    if (mark_seen(query)) {
      auto raw_est = cost.Estimate(query);
      if (raw_est.ok()) frontier.push({query, *raw_est});
    }

    double best_total = choices.front().estimate.total;
    int expanded = 0;
    while (!frontier.empty() && expanded < options_.search_budget) {
      PlanChoice current = frontier.top();
      frontier.pop();
      ++expanded;
      for (auto& tagged : all.EnumerateNeighborsTagged(current.plan)) {
        const ExprPtr& next = tagged.tree;
        if (!mark_seen(next)) continue;
        auto est = cost.Estimate(next);
        if (!est.ok()) continue;
        // An adopted improvement: this single rule application produced the
        // cheapest plan seen so far. The trace records these (and only
        // these) search steps — the full neighbor fan-out is noise.
        if (observer_ != nullptr && est->total < best_total) {
          observer_->OnRewrite("search", *tagged.rule, current.plan, next);
        }
        best_total = std::min(best_total, est->total);
        PlanChoice choice{next, *est};
        choices.push_back(choice);
        frontier.push(std::move(choice));
      }
    }
    obs::MetricsRegistry::Global()
        .GetCounter("planner.search_expanded")
        ->Increment(expanded);
  }
  obs::MetricsRegistry::Global()
      .GetCounter("planner.plans_considered")
      ->Increment(static_cast<int64_t>(choices.size()));

  std::stable_sort(choices.begin(), choices.end(),
                   [](const PlanChoice& a, const PlanChoice& b) {
                     return a.estimate.total < b.estimate.total;
                   });
  return choices;
}

Result<ExprPtr> Planner::Optimize(const ExprPtr& query) {
  EXA_ASSIGN_OR_RETURN(std::vector<PlanChoice> choices, Enumerate(query));
  ExprPtr best = KeepRowOrder(db_, query, choices.front().plan);
  if (options_.lower_physical) {
    best = options_.use_indexes
               ? LowerPhysical(best, db_, options_.cost_params, observer_)
               : LowerPhysical(best);
  }
  return best;
}

}  // namespace excess
