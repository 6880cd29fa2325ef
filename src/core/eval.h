#ifndef EXCESS_CORE_EVAL_H_
#define EXCESS_CORE_EVAL_H_

#include <array>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/expr.h"
#include "core/governor.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {

inline constexpr int kNumOpKinds = static_cast<int>(OpKind::kIndexJoin) + 1;

/// Late-bound method resolution (§4 strategy A): given the run-time exact
/// type of a receiver, return the stored query tree of the most specific
/// implementation of `method`. Implemented by methods::MethodRegistry;
/// declared here so the core evaluator does not depend on that library.
class MethodResolver {
 public:
  virtual ~MethodResolver() = default;
  virtual Result<ExprPtr> Resolve(const std::string& exact_type,
                                  const std::string& method) const = 0;
};

/// Instrumentation collected during evaluation. The figure benches read
/// these to check the paper's cost arguments (e.g. Fig. 8: the occurrences
/// flowing into DE drop from |S|·|E| to |S|+|E|).
struct EvalStats {
  /// Operator applications, indexed by OpKind.
  std::array<int64_t, kNumOpKinds> invocations{};
  /// Occurrences consumed per operator kind (multiset total counts / array
  /// lengths of loop-style operator inputs).
  std::array<int64_t, kNumOpKinds> occurrences{};
  /// Self wall-clock nanoseconds per operator kind (time in the operator
  /// itself, children excluded). Only populated when the evaluator's timing
  /// is enabled; under parallel APPLY the span covers the whole parallel
  /// section, so sums across kinds can exceed single-thread wall time.
  std::array<int64_t, kNumOpKinds> nanos{};
  int64_t predicate_atoms = 0;
  int64_t derefs = 0;
  /// High-water mark of governor-accounted materialized bytes (0 when no
  /// governor was attached). Merge takes the max: workers share one governor,
  /// so the peak is a property of the whole query, not a per-worker sum.
  int64_t peak_bytes = 0;

  void Clear() { *this = EvalStats(); }
  /// Accumulates `other` into this — used to fold per-worker stats from a
  /// parallel APPLY back into the owning evaluator.
  void Merge(const EvalStats& other);
  int64_t TotalInvocations() const;
  int64_t TotalOccurrences() const;
  int64_t TotalNanos() const;
  int64_t InvocationsOf(OpKind kind) const {
    return invocations[static_cast<int>(kind)];
  }
  int64_t OccurrencesOf(OpKind kind) const {
    return occurrences[static_cast<int>(kind)];
  }
  int64_t NanosOf(OpKind kind) const {
    return nanos[static_cast<int>(kind)];
  }
  std::string ToString() const;
};

/// Per-node actuals for EXPLAIN ANALYZE. Updated by the same Count() call
/// that feeds EvalStats, so for every operator kind the sum of a profile's
/// per-node invocations/occurrences over nodes of that kind equals the
/// EvalStats entry by construction — the consistency EXPLAIN ANALYZE
/// promises is an invariant, not a reconciliation.
struct NodeProfile {
  int64_t invocations = 0;
  /// Occurrences consumed, with the same per-kind accounting rules as
  /// EvalStats::occurrences.
  int64_t occurrences_in = 0;
  /// Total occurrences produced across all invocations of this node
  /// (multiset total counts / array lengths; 1 per scalar or tuple result).
  int64_t out_occurrences = 0;
  /// Self wall-clock (children excluded); only populated when the owning
  /// evaluator's timing is enabled.
  int64_t self_nanos = 0;

  void Merge(const NodeProfile& o) {
    invocations += o.invocations;
    occurrences_in += o.occurrences_in;
    out_occurrences += o.out_occurrences;
    self_nanos += o.self_nanos;
  }
};

/// A per-plan-node breakdown, keyed by node identity (Expr addresses are
/// stable: plans are immutable shared_ptr DAGs). Parallel APPLY gives each
/// worker a private profile over the *same* shared subscript tree, so
/// merging by pointer attributes worker time to the right nodes.
class PlanProfile {
 public:
  NodeProfile& At(const Expr* e) { return nodes_[e]; }
  const NodeProfile* Find(const Expr* e) const {
    auto it = nodes_.find(e);
    return it == nodes_.end() ? nullptr : &it->second;
  }
  void Merge(const PlanProfile& other) {
    for (const auto& [node, prof] : other.nodes_) nodes_[node].Merge(prof);
  }
  const std::unordered_map<const Expr*, NodeProfile>& nodes() const {
    return nodes_;
  }

 private:
  std::unordered_map<const Expr*, NodeProfile> nodes_;
};

/// The algebra interpreter. Evaluates an expression tree against a
/// Database; INPUT is bound by enclosing SET_APPLY / ARR_APPLY / GRP
/// subscripts and by COMP.
///
/// Thread-safety contract: one Evaluator instance serves one thread (stats
/// are plain counters), but any number of Evaluator instances may evaluate
/// side-effect-free expressions against the same Database concurrently —
/// Value hashes and the store's deref counter are atomic, and the parallel
/// APPLY path refuses subscripts that mutate the store (REF interning) or
/// dispatch methods. That is exactly how parallel SET_APPLY/ARR_APPLY runs:
/// one private Evaluator per worker, stats merged at the barrier.
class Evaluator {
 public:
  explicit Evaluator(Database* db, const MethodResolver* methods = nullptr)
      : db_(db), methods_(methods) {}

  /// Evaluates a closed expression (no free INPUT).
  Result<ValuePtr> Eval(const ExprPtr& expr);
  /// Evaluates with an explicit INPUT binding (used to apply subscript
  /// expressions directly, e.g. by the methods runtime and tests).
  Result<ValuePtr> EvalWithInput(const ExprPtr& expr, const ValuePtr& input);

  EvalStats& stats() { return stats_; }
  const EvalStats& stats() const { return stats_; }

  /// Per-OpKind wall-clock accounting (stats().nanos). Off by default: the
  /// two clock reads per node cost ~2% on subscript-heavy plans.
  void set_timing_enabled(bool on) { timing_enabled_ = on; }
  bool timing_enabled() const { return timing_enabled_; }

  /// Parallel SET_APPLY/ARR_APPLY. Enabled by default; only takes effect
  /// when the worker pool has more than one thread (EXCESS_THREADS), the
  /// input has at least parallel_threshold occurrences, and the subscript
  /// is parallel-safe (analysis::IsParallelSafe).
  void set_parallel_enabled(bool on) { parallel_enabled_ = on; }
  void set_parallel_threshold(size_t n) { parallel_threshold_ = n; }

  /// Attaches a per-query governor (non-owning; must outlive evaluation).
  /// Every EvalNode entry becomes a checkpoint (cancellation / deadline /
  /// budget), every fresh materialization is charged against the memory
  /// budget, and the governor's recursion limit replaces the default depth
  /// cap. Workers spawned by parallel APPLY share the same governor.
  void set_governor(Governor* governor) {
    governor_ = governor;
    max_depth_ = governor != nullptr && governor->limits().max_eval_depth > 0
                     ? governor->limits().max_eval_depth
                     : kDefaultEvalDepth;
  }
  Governor* governor() const { return governor_; }

  /// Attaches a per-node profile (non-owning; must outlive evaluation).
  /// EXPLAIN ANALYZE's data source: every Count() also lands in the profile,
  /// and node results/self-times are recorded per Expr. Enable timing too if
  /// self_nanos should be populated.
  void set_profile(PlanProfile* profile) { profile_ = profile; }
  PlanProfile* profile() const { return profile_; }

 private:
  struct Ctx {
    ValuePtr input;                          // INPUT binding (may be null)
    const std::vector<ValuePtr>* params = nullptr;  // method actuals
  };

  Result<ValuePtr> EvalNode(const Expr& e, const Ctx& ctx);
  Result<ValuePtr> EvalNodeTimed(const Expr& e, const Ctx& ctx);
  Result<ValuePtr> EvalNodeImpl(const Expr& e, const Ctx& ctx);
  Result<Truth> EvalPred(const Predicate& p, const Ctx& ctx);
  Result<Truth> EvalAtom(const Predicate& p, const Ctx& ctx);

  Result<ValuePtr> EvalSetApply(const Expr& e, const ValuePtr& in,
                                const Ctx& ctx);
  Result<ValuePtr> EvalGroup(const Expr& e, const ValuePtr& in, const Ctx& ctx);
  Result<ValuePtr> EvalArrApply(const Expr& e, const ValuePtr& in,
                                const Ctx& ctx);
  Result<ValuePtr> EvalHashJoin(const Expr& e, const Ctx& ctx);
  Result<ValuePtr> EvalIndexProbe(const Expr& e, const Ctx& ctx);
  Result<ValuePtr> EvalIndexJoin(const Expr& e, const Ctx& ctx);
  /// Exact-scan fallback for IDX_PROBE when the index is missing or
  /// unusable: SET_APPLY[COMP_θ(opnd)] semantics inline over the base set.
  Result<ValuePtr> ProbeScanFallback(const Expr& e, const ValuePtr& base,
                                     const Ctx& ctx);
  /// One element's SET_APPLY[COMP_θ(opnd)] contract, shared by the
  /// physical operators: opnd is e.sub() (the element itself when absent);
  /// a null operand result propagates (dne drops, unk survives as an unk
  /// occurrence), otherwise θ = e.pred() keeps it, turns it unk, or drops it.
  Status EmitComp(const Expr& e, ValuePtr elem, int64_t count, const Ctx& ctx,
                  std::vector<SetEntry>* out);
  Result<ValuePtr> EvalArith(const ValuePtr& a, const ValuePtr& b,
                             const std::string& op);
  Result<ValuePtr> EvalMethodCall(const Expr& e, std::vector<ValuePtr> vals,
                                  const Ctx& ctx);

  /// True when the apply-style node should fan `n` elements out across the
  /// worker pool (pool > 1, n over threshold, subscript parallel-safe).
  bool ShouldParallelize(const Expr& e, size_t n) const;
  /// Maps `sub` over `inputs` with one private Evaluator per worker,
  /// merging their stats into stats_. outputs[i] is sub(inputs[i]).
  Status ParallelMap(const ExprPtr& sub, const Ctx& ctx,
                     const std::vector<ValuePtr>& inputs,
                     std::vector<ValuePtr>* outputs);

  void Count(const Expr& e, int64_t occurrences_in = 0) {
    ++stats_.invocations[static_cast<int>(e.kind())];
    stats_.occurrences[static_cast<int>(e.kind())] += occurrences_in;
    if (profile_ != nullptr) {
      NodeProfile& np = profile_->At(&e);
      ++np.invocations;
      np.occurrences_in += occurrences_in;
    }
  }

  /// Charges `v` against the memory budget iff this evaluation materialized
  /// it: use_count()==1 means no container/literal/database still owns it,
  /// so it must be fresh. Shared (pass-through) structure stays free.
  Status ChargeFresh(const ValuePtr& v) {
    if (governor_ == nullptr || v == nullptr || v.use_count() != 1) {
      return Status::OK();
    }
    return governor_->ChargeBytes(v->ShallowSizeBytes());
  }

  Database* db_;
  const MethodResolver* methods_;
  EvalStats stats_;
  Governor* governor_ = nullptr;
  PlanProfile* profile_ = nullptr;
  int depth_ = 0;
  int max_depth_ = kDefaultEvalDepth;
  bool timing_enabled_ = false;
  bool parallel_enabled_ = true;
  size_t parallel_threshold_ = 1024;
  int64_t child_time_ns_ = 0;  // nanos consumed by the current node's children
};

}  // namespace excess

#endif  // EXCESS_CORE_EVAL_H_
