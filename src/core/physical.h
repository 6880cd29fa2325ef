#ifndef EXCESS_CORE_PHYSICAL_H_
#define EXCESS_CORE_PHYSICAL_H_

#include "core/cost.h"
#include "core/expr.h"
#include "core/rewriter.h"
#include "objects/database.h"

namespace excess {

/// Physical lowering: the last planner phase, run after the rewrite rules
/// (which only ever see logical trees). Recognizes the equi-join shape
///
///   SET_APPLY[χ(COMP_θ(INPUT))](CROSS(A, B))
///
/// — including the one inside the RelJoin derived form — where θ's
/// conjunction contains at least one equality atom whose sides address
/// opposite halves of the pair (free INPUT only through TUP_EXTRACT_{_1}
/// resp. TUP_EXTRACT_{_2}), and replaces it with
/// SET_APPLY[χ](HASH_JOIN(A, B, kA, kB)[θ]) so the cross product is never
/// materialized. χ is what the subscript computes from the COMP's result
/// (absent when the COMP is the whole subscript); it must reach INPUT only
/// through the COMP and map dne to dne. Several equality atoms become one
/// composite positional-tuple key (tuple equality is positional on values,
/// so composite-key equality is exactly the atom conjunction).
///
/// The whole of θ rides along on the physical node and is re-evaluated on
/// key-matching pairs, which keeps the answer (including unk occurrences
/// from three-valued residual atoms) identical to the logical plan; see
/// Evaluator::EvalHashJoin for the null-key fallbacks and the tiny-input
/// nested-loop gate.
///
/// Joins translated from EXCESS arrive as
/// SET_APPLY[χ(COMP_θ(f))](CROSS(A, B)), f the environment extension built
/// of TUP_CAT / TUP over the pair's components (see the decorrelate-cross
/// rule). θ's field reads are resolved through f on the plan's structure
/// alone: a field comes from the TUP_CAT component that has it, which must
/// show in the plan (a TUP<v> constructor, or a side whose builder names
/// its element fields). The keys must be extraction paths, and the join
/// carries f as its COMP operand: HASH_JOIN(A, B, kA, kB)[f][θ].
ExprPtr LowerPhysical(const ExprPtr& plan);

/// Index-aware physical lowering. Everything the plain overload does, plus
/// two rules that consult the database's secondary indexes and only fire
/// when the cost model scores the indexed alternative strictly cheaper:
///
///  - lower-index-probe: SET_APPLY[χ(COMP_θ(opnd))](Var(S)) — χ as for
///    the hash join (rule-15 fusion wraps the target list around the COMP
///    in translated plans), opnd a pure extraction path,
///    optionally inside the translator's TUP<f>(...) environment tuple —
///    where θ's ∧-spine holds an atom comparing a pure extraction path
///    over INPUT against a closed, side-effect-free probe, and an index on
///    S covers the operand+atom path (hash for =/in, ordered for
///    </<=/>/>=) — becomes IDX_PROBE(probe)[opnd][θ], re-wrapped in
///    SET_APPLY[χ] when χ is present. Two atoms bounding one ordered
///    index's key from below (>, >=) and above (<, <=), in either operand
///    order, become the two-bound IDX_PROBE(lo, hi), which walks only the
///    interval between them.
///  - lower-index-join: a freshly lowered HASH_JOIN whose one side is
///    Var(S) (or a pure extraction-path SET_APPLY over Var(S)) with a key
///    binder matching an index on S — becomes IDX_JOIN, which never scans
///    the indexed side.
///
/// Firings are counted as rules.fired.lower-index-probe / -join and
/// reported to `observer` (phase "lowering"). With a null `db` this is the
/// plain overload: plans come out byte-identical to it.
ExprPtr LowerPhysical(const ExprPtr& plan, const Database* db,
                      const CostParams& params,
                      RewriteObserver* observer = nullptr);

}  // namespace excess

#endif  // EXCESS_CORE_PHYSICAL_H_
