#ifndef EXCESS_CORE_EXPR_H_
#define EXCESS_CORE_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "objects/value.h"
#include "util/status.h"

namespace excess {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;
struct Predicate;
using PredicatePtr = std::shared_ptr<const Predicate>;

/// The algebraic operators (§3.2). The first block are the 23 primitives of
/// the paper (8 multiset + 4 tuple + 9 array + 2 reference), plus COMP;
/// the leaf/extension block carries literals, named database objects, the
/// INPUT symbol, method parameters, arithmetic, registered aggregate
/// functions, and late-bound method calls (§4 strategy A).
enum class OpKind {
  // Leaves.
  kInput,  // the INPUT symbol of SET_APPLY/ARR_APPLY/GRP subscripts and COMP
  kConst,  // literal value
  kVar,    // named top-level database object
  kParam,  // method formal parameter (bound by kMethodCall)

  // Multiset primitives (§3.2.1).
  kAddUnion,     // A ⊎ B: cardinalities add
  kSetMake,      // SET(x): singleton multiset
  kSetApply,     // SET_APPLY_E(A), optionally restricted to one exact type (§4)
  kGroup,        // GRP_E(A): partition into equivalence classes of E
  kDupElim,      // DE(A): all cardinalities become 1
  kDiff,         // A - B: cardinalities subtract (floor 0)
  kCross,        // A × B: multiset of pairs, duplicates preserved
  kSetCollapse,  // ⊎ of the members of a multiset of multisets

  // Tuple primitives (§3.2.2).
  kProject,     // π_L(t): tuple with the listed fields
  kTupCat,      // TUP_CAT(t1, t2): concatenation
  kTupExtract,  // TUP_EXTRACT_f(t): the field itself (not a 1-tuple)
  kTupMake,     // TUP(x): unary tuple

  // Array primitives (§3.2.3).
  kArrMake,     // ARR(x): 1-element array
  kArrExtract,  // ARR_EXTRACT_n(A): the element itself (1-based; `last` ok)
  kArrApply,    // ARR_APPLY_E(A): order-preserving map
  kSubArr,      // SUBARR_{m,n}(A): inclusive 1-based slice (`last` ok)
  kArrCat,      // ARR_CAT(A, B)
  kArrCollapse, // order-preserving SET_COLLAPSE
  kArrDiff,     // order-preserving difference
  kArrDupElim,  // keep first occurrence of each distinct value
  kArrCross,    // order-preserving ×

  // Reference operators (§3.2.4).
  kRef,    // REF(x): intern x and return a reference to it
  kDeref,  // DEREF(r): materialize the referenced object

  // Predicate application (§3.2.4).
  kComp,  // COMP_P(x): x if P(x); unk if UNK; dne if false

  // Extensions required to execute EXCESS.
  kArith,       // scalar arithmetic: + - * / %
  kAgg,         // registered aggregate over a multiset: min max count sum avg
  kMethodCall,  // late-bound method invocation (run-time switch table, §4)

  // Physical operators. Not part of the paper's algebra surface: they are
  // introduced by the lowering pass (core/physical.h) after rewriting, and
  // exist so the evaluator can run the §5 cost arguments as real
  // asymptotics instead of qualitative occurrence counts.
  //
  // HASH_JOIN(A, B, kA, kB)[opnd][θ] is answer-equal to
  // SET_APPLY[COMP_θ(opnd)](CROSS(A, B)): children 0/1 are the data
  // inputs; children 2/3 are per-element key expressions (INPUT bound to an
  // element of A resp. B — they are *binders*, like subscripts, not data
  // children); the optional sub() is the COMP operand binder over the pair
  // tuple (_1, _2) (absent: the pair itself), as IDX_PROBE's; pred()
  // carries the full original predicate θ, re-evaluated on key-matching
  // pairs only (its INPUT is the operand result).
  kHashJoin,

  // IDX_PROBE(probe)[sub][θ] is answer-equal to
  // SET_APPLY[sub = COMP_θ(opnd)](Var(S)) where one conjunct of θ compares
  // a key path of the element against the probe: child 0 is the (closed)
  // probe expression; sub() is the COMP operand binder (INPUT bound to an
  // element of S); pred() is the full θ, re-evaluated on every candidate
  // the index returns. name() is the index name, names() = {S}, index()
  // carries the CmpOp of the matched atom. IDX_PROBE(lo, hi) serves two
  // conjuncts bounding the key from both sides: child 0 is the lower bound
  // (index() is > or >=), child 1 the upper bound, whose CmpOp (< or <=)
  // hi() carries. Falls back to an exact scan of S when the index is
  // missing or unusable.
  kIndexProbe,

  // IDX_JOIN(A, B, kA, kB)[opnd][θ] has the same shape and answer as HASH_JOIN
  // but serves one side's key partitions from a secondary index instead of
  // building a hash table by scanning that side. name() is the index name;
  // index() is the indexed side (0 = A, 1 = B). Falls back to EvalHashJoin
  // when the index is missing or unusable.
  kIndexJoin,
};

const char* OpKindToString(OpKind kind);

/// Comparators available to COMP atoms. kIn is multiset membership, which
/// the paper describes as "conceptually an equality test against every
/// occurrence in a multiset".
enum class CmpOp { kEq, kNe, kLt, kLe, kGt, kGe, kIn };

const char* CmpOpToString(CmpOp op);

/// Three-valued logic results for predicates.
enum class Truth { kFalse, kTrue, kUnk };

/// A COMP predicate: atomic comparisons between algebra expressions
/// (evaluated with INPUT bound to the COMP operand) composed with ∧ and ¬
/// (∨ provided as a convenience; the paper derives it).
struct Predicate {
  enum class Kind { kAtom, kAnd, kOr, kNot, kTrue };

  Kind kind = Kind::kTrue;
  CmpOp cmp = CmpOp::kEq;
  ExprPtr lhs;  // atom only
  ExprPtr rhs;  // atom only
  PredicatePtr a;  // And/Or/Not
  PredicatePtr b;  // And/Or

  static PredicatePtr Atom(ExprPtr lhs, CmpOp cmp, ExprPtr rhs);
  static PredicatePtr And(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Or(PredicatePtr a, PredicatePtr b);
  static PredicatePtr Not(PredicatePtr a);
  static PredicatePtr True();

  bool Equals(const Predicate& other) const;
  uint64_t Hash() const;
  std::string ToString() const;
};

/// An immutable algebra expression node. Children are the data inputs; the
/// `sub` expression is the operator subscript E of SET_APPLY / ARR_APPLY /
/// GRP, evaluated with INPUT bound to each element.
class Expr {
 public:
  struct Builder;

  OpKind kind() const { return kind_; }
  const std::vector<ExprPtr>& children() const { return children_; }
  const ExprPtr& child(size_t i) const { return children_[i]; }
  size_t num_children() const { return children_.size(); }

  /// Subscript expression (SET_APPLY/ARR_APPLY/GRP).
  const ExprPtr& sub() const { return sub_; }
  /// COMP predicate.
  const PredicatePtr& pred() const { return pred_; }
  /// Literal payload (kConst).
  const ValuePtr& literal() const { return literal_; }

  /// Multi-purpose name: kVar object name, kTupExtract field, kRef target
  /// type, kAgg function name, kMethodCall method name, kArith operator.
  const std::string& name() const { return name_; }
  /// kProject field list.
  const std::vector<std::string>& names() const { return names_; }
  /// §4 exact-type restriction on kSetApply ("" = no restriction).
  const std::string& type_filter() const { return type_filter_; }

  /// kArrExtract index / kSubArr bounds / kParam position (all 1-based for
  /// array ops, 0-based for kParam).
  int64_t index() const { return index_; }
  int64_t lo() const { return lo_; }
  int64_t hi() const { return hi_; }
  bool index_is_last() const { return index_is_last_; }
  bool lo_is_last() const { return lo_is_last_; }
  bool hi_is_last() const { return hi_is_last_; }

  bool Equals(const Expr& other) const;
  bool Equals(const ExprPtr& other) const { return other && Equals(*other); }
  uint64_t Hash() const;

  /// Compact linear rendering, e.g. "SET_APPLY[π<name>(INPUT)](Employees)".
  std::string ToString() const;
  /// Indented multi-line query-tree rendering (Figures 3-11 style).
  std::string ToTreeString() const;

  /// Structural copy with the i-th child replaced.
  ExprPtr WithChild(size_t i, ExprPtr replacement) const;
  /// Structural copy with a new child vector (must have the same arity).
  ExprPtr WithChildren(std::vector<ExprPtr> children) const;
  /// Structural copy with a new subscript.
  ExprPtr WithSub(ExprPtr sub) const;

  /// Number of nodes in this expression (children + subscripts + predicate
  /// expressions), used by the cost model and rewrite budgets.
  int64_t NodeCount() const;

  // Exposed for the builder functions in core/builder.h only.
  struct MakeTag {};
  explicit Expr(MakeTag, OpKind kind) : kind_(kind) {}

 private:
  friend struct ExprFactory;

  OpKind kind_;
  std::vector<ExprPtr> children_;
  ExprPtr sub_;
  PredicatePtr pred_;
  ValuePtr literal_;
  std::string name_;
  std::vector<std::string> names_;
  std::string type_filter_;
  int64_t index_ = 0;
  int64_t lo_ = 0;
  int64_t hi_ = 0;
  bool index_is_last_ = false;
  bool lo_is_last_ = false;
  bool hi_is_last_ = false;

  friend ExprPtr MakeExpr(OpKind kind, std::vector<ExprPtr> children,
                          ExprPtr sub, PredicatePtr pred, ValuePtr literal,
                          std::string name, std::vector<std::string> names,
                          std::string type_filter, int64_t index, int64_t lo,
                          int64_t hi, bool index_is_last, bool lo_is_last,
                          bool hi_is_last);
};

/// Low-level factory used by the typed builders in core/builder.h.
ExprPtr MakeExpr(OpKind kind, std::vector<ExprPtr> children, ExprPtr sub,
                 PredicatePtr pred, ValuePtr literal, std::string name,
                 std::vector<std::string> names, std::string type_filter,
                 int64_t index, int64_t lo, int64_t hi, bool index_is_last,
                 bool lo_is_last, bool hi_is_last);

}  // namespace excess

#endif  // EXCESS_CORE_EXPR_H_
