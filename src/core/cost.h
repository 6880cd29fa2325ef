#ifndef EXCESS_CORE_COST_H_
#define EXCESS_CORE_COST_H_

#include <string>

#include "core/expr.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {

/// Estimated properties of one (sub)plan.
struct CostEstimate {
  /// Estimated occurrence count of the produced multiset/array (1 for
  /// scalars and tuples).
  double cardinality = 1;
  /// Estimated total work in abstract "occurrence touches"; derefs and
  /// method calls are weighted (paper §6 calls cost functions for complex
  /// object models future work — these are deliberately simple, catalog-fed
  /// textbook estimates).
  double total = 0;
  /// Probability the produced value is non-null. Uniform null propagation
  /// means operators downstream of a COMP in a fused pipeline skip their
  /// work on failed elements; scalar operators charge cost × live and
  /// COMP multiplies live by its selectivity. Collection outputs reset to
  /// 1 (dne occurrences are dropped at construction).
  double live = 1;
  /// Estimated cardinality of one *element* of the produced collection —
  /// 1 for collections of scalars/tuples, the average group size for GRP
  /// output, the subscript's estimated cardinality for SET_APPLY/ARR_APPLY
  /// output (SET_COLLAPSE's fan-out when the subscript builds a
  /// collection). SET_APPLY/ARR_APPLY feed this to their subscript as
  /// INPUT's cardinality, so per-group work inside an apply-over-groups
  /// plan is charged for the elements each group actually holds instead of
  /// a flat 1 (which made any post-grouping pipeline look nearly free).
  double elem_cardinality = 1;
};

/// Tuning constants, exposed so ablation benches can vary them.
struct CostParams {
  double selectivity = 0.25;       // default COMP pass rate
  double dup_factor = 0.5;         // DE output/input ratio
  double groups_per_input = 0.1;   // GRP group count ratio
  double avg_inner_set = 4;        // SET_COLLAPSE fan-out
  double deref_cost = 4;           // one DEREF = this many touches
  double method_cost = 16;         // late-bound dispatch overhead
};

/// Cardinality/cost estimation over algebra trees. Named top-level objects
/// contribute *actual* cardinalities (the database is in memory — the
/// "statistics" are exact at the root), everything else is estimated.
class CostModel {
 public:
  explicit CostModel(const Database* db, CostParams params = CostParams())
      : db_(db), params_(params) {}

  Result<CostEstimate> Estimate(const ExprPtr& expr) const {
    return EstimateNode(*expr, /*input_card=*/1);
  }

  const CostParams& params() const { return params_; }

 private:
  Result<CostEstimate> EstimateNode(const Expr& e, double input_card) const;
  double PredicateCost(const Predicate& p, double input_card) const;
  /// Per-pair cost of a join's COMP operand binder (0 without one).
  double OpndCost(const Expr& e) const;

  const Database* db_;
  CostParams params_;
};

}  // namespace excess

#endif  // EXCESS_CORE_COST_H_
