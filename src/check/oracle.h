#ifndef EXCESS_CHECK_ORACLE_H_
#define EXCESS_CHECK_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "check/gen.h"
#include "core/expr.h"
#include "objects/database.h"
#include "util/status.h"

namespace excess {
namespace check {

/// One semantic disagreement found by an oracle. Everything needed to
/// reproduce it is (oracle, seed); the rendered trees and answers make the
/// report readable without re-running.
struct Divergence {
  std::string oracle;  // "rules" | "lowering" | "roundtrip"
  std::string detail;  // rule name / lowering phase / emitted program
  uint64_t seed = 0;
  std::string before_tree;
  std::string after_tree;
  std::string message;  // answers, or the unexpected error Status
};

/// Counters each oracle seed reports, so sweeps can assert they actually
/// exercised the system (a generator bug that skips everything would
/// otherwise pass silently).
struct OracleStats {
  int64_t plans = 0;        // plans generated
  int64_t comparisons = 0;  // answer equalities asserted
  int64_t skipped = 0;      // plans/rules skipped (eval error, unsupported
                            // emission, documented-deviation gates)
  void Merge(const OracleStats& o) {
    plans += o.plans;
    comparisons += o.comparisons;
    skipped += o.skipped;
  }
};

/// Oracle 1 — rule equivalence. Builds a random database and random plans
/// from `seed`, applies every rewrite rule at every position it fires
/// (one step, via Rewriter::EnumerateNeighbors) and asserts 3VL-exact
/// answer equality, modulo the deviations DESIGN.md documents:
///   - rule 10 (selection-before-group): equal modulo emptied groups;
///   - rule 27 (combine-comps): skipped when the answer contains unk;
///   - rule 28 (ref-of-deref): equal up to value-interned identity
///     (answers compared after dereferencing);
///   - rules 5/9: skipped when a CROSS input is empty (the paper's
///     standing non-emptiness assumption).
Status CheckRulesSeed(uint64_t seed, const GenOptions& opts,
                      OracleStats* stats, std::vector<Divergence>* out);

/// Oracle 2 — lowering equivalence. For each generated plan asserts, in
/// order: LowerPhysical(plan) evaluates exactly equal; serial and parallel
/// evaluation (parallel_threshold=1, pool sized by EXCESS_THREADS) agree
/// exactly; and the full Planner::Optimize output agrees modulo the
/// documented rule deviations above (the heuristic phase may fire them).
Status CheckLoweringSeed(uint64_t seed, const GenOptions& opts,
                         OracleStats* stats, std::vector<Divergence>* out);

/// Oracle — index equivalence. Builds a random database, then interleaves
/// random index churn (create hash/ordered indexes over the generated sets
/// — identity, field-path, and ref-traversing — drop them again, and mutate
/// the base sets through AppendNamed / SetNamed so incremental maintenance
/// and rebuilds are both exercised) with plan comparisons: each generated
/// plan must evaluate 3VL-exactly equal under (a) no lowering, (b)
/// index-blind lowering, and (c) index-aware lowering against whatever
/// indexes currently exist.
Status CheckIndexSeed(uint64_t seed, const GenOptions& opts,
                      OracleStats* stats, std::vector<Divergence>* out);

/// Oracle 3 — round trip. Generates denotable plans, emits each to EXCESS
/// source (skipping Unsupported emissions), re-executes the program through
/// parse → translate → eval in an unoptimized session over the same
/// database, and asserts the stored result equals the plan's direct
/// evaluation.
Status CheckRoundTripSeed(uint64_t seed, const GenOptions& opts,
                          OracleStats* stats, std::vector<Divergence>* out);

/// Fuzz oracle — parser robustness. Mutates well-formed EXCESS programs
/// (including freshly emitted ones) and feeds them to Parse(), which must
/// return ok or an error Status; a crash or hang fails the calling test by
/// process death / timeout. Returns the number of sources parsed.
int64_t FuzzParserSeed(uint64_t seed, const GenOptions& opts);

/// Deep scan for an unk scalar anywhere in `v`.
bool ContainsUnk(const ValuePtr& v);

/// True iff any data `e` reads — Const literals or the current value of a
/// referenced Var — contains unk anywhere.
bool PlanDataContainsUnk(const Database& db, const ExprPtr& e);
/// Recursively drops empty member multisets from sets-of-sets (the rule-10
/// comparator's normalization).
ValuePtr DropEmptyGroupsDeep(const ValuePtr& v);
/// Replaces every reference with the referenced object's value (identity
/// erased — the rule-28 comparator).
ValuePtr DerefAll(const Database& db, const ValuePtr& v);

/// The translated-join path in isolation: decorrelate-cross and rule-15
/// fusion to fixpoint (both exact), which leaves a translated join in the
/// shape the hash-join lowering reads through. Null when neither fires.
ExprPtr Decorrelated(const Database& db, const ExprPtr& plan);

}  // namespace check
}  // namespace excess

#endif  // EXCESS_CHECK_ORACLE_H_
