#ifndef EXCESS_CORE_PLANNER_H_
#define EXCESS_CORE_PLANNER_H_

#include <string>
#include <vector>

#include "core/cost.h"
#include "core/rewriter.h"
#include "core/rules.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {

/// A candidate plan produced by the search, with its estimated cost.
struct PlanChoice {
  ExprPtr plan;
  CostEstimate estimate;
};

/// The query optimizer: the role the EXODUS optimizer generator plays for
/// EXTRA/EXCESS (§1, §6). Two phases:
///  1. heuristic — the directed rule set to fixpoint (always-beneficial
///     transformations: combine SET_APPLYs, combine COMPs, push DE and
///     selections down, simplify array/tuple extractions, collapse
///     REF/DEREF pairs);
///  2. cost-based — best-first exploration of the rewrite graph generated
///     by all rules (directed + exploratory), memoized on tree identity,
///     keeping the cheapest tree under the estimates of CostModel.
class Planner {
 public:
  struct Options {
    /// Maximum trees expanded in the cost-based phase; 0 disables it.
    int search_budget = 64;
    /// Run the physical lowering pass (core/physical.h) on the winning
    /// plan. Rewrite rules never see physical operators either way.
    bool lower_physical = true;
    /// Let the lowering pass consult the database's secondary indexes
    /// (lower-index-probe / lower-index-join). Off, lowering is the classic
    /// hash-join-only pass and plans are index-neutral.
    bool use_indexes = true;
    CostParams cost_params;
  };

  explicit Planner(const Database* db) : db_(db) {}
  Planner(const Database* db, Options options) : db_(db), options_(options) {}

  /// Heuristic + cost-based optimization. Result rows keep the field order
  /// of `query`'s rows, whatever plan wins.
  Result<ExprPtr> Optimize(const ExprPtr& query);

  /// As Optimize, but also reports the considered alternatives (sorted by
  /// cost, best first) — used by the optimizer bench and example tour.
  Result<std::vector<PlanChoice>> Enumerate(const ExprPtr& query);

  /// Rule names fired during the heuristic phase of the last call.
  const std::vector<std::string>& heuristic_trace() const {
    return heuristic_trace_;
  }

  /// Attaches a rewrite-trace observer (non-owning; may be null). It sees
  /// every heuristic-phase rule firing (phase "heuristic", sub-expression
  /// granularity) and, for the cost-based phase, each adopted improvement —
  /// a neighbor whose estimate beats the best plan found so far (phase
  /// "search", whole-tree granularity).
  void set_observer(RewriteObserver* observer) { observer_ = observer; }

 private:
  const Database* db_;
  Options options_;
  std::vector<std::string> heuristic_trace_;
  RewriteObserver* observer_ = nullptr;
};

}  // namespace excess

#endif  // EXCESS_CORE_PLANNER_H_
