#include "core/physical.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/builder.h"
#include "obs/metrics.h"

namespace excess {

namespace {

/// Shared state of one lowering pass. With a null cost model the pass is
/// the classic hash-join-only lowering; the index rules need the database
/// (for index lookup) and the cost model (to compete against the scan).
struct LowerCtx {
  const Database* db = nullptr;
  const CostModel* cost = nullptr;
  RewriteObserver* observer = nullptr;
};

/// Flattens the ∧-spine of a predicate into its conjuncts.
void Conjuncts(const PredicatePtr& p, std::vector<PredicatePtr>* out) {
  if (p->kind == Predicate::Kind::kAnd) {
    Conjuncts(p->a, out);
    Conjuncts(p->b, out);
    return;
  }
  out->push_back(p);
}

/// If `p` is an equality atom joining the two halves of the pair, extracts
/// the per-element key expressions (INPUT re-bound from the pair to an
/// element of the matching side). A side without free INPUT is a constant —
/// that atom is a selection, not a join key.
bool EquiKeys(const Predicate& p, ExprPtr* lkey, ExprPtr* rkey) {
  if (p.kind != Predicate::Kind::kAtom || p.cmp != CmpOp::kEq) return false;
  if (!analysis::ContainsFreeInput(p.lhs) ||
      !analysis::ContainsFreeInput(p.rhs)) {
    return false;
  }
  if (analysis::DependsOnlyOnField(p.lhs, "_1") &&
      analysis::DependsOnlyOnField(p.rhs, "_2")) {
    *lkey = analysis::StripFieldExtract(p.lhs, "_1");
    *rkey = analysis::StripFieldExtract(p.rhs, "_2");
    return true;
  }
  if (analysis::DependsOnlyOnField(p.lhs, "_2") &&
      analysis::DependsOnlyOnField(p.rhs, "_1")) {
    *lkey = analysis::StripFieldExtract(p.rhs, "_1");
    *rkey = analysis::StripFieldExtract(p.lhs, "_2");
    return true;
  }
  return false;
}

/// Parses a pure extraction path over a free INPUT — a TUP_EXTRACT chain
/// with DEREFs interleaved — exactly as the index extractor walks it
/// (derefs happen lazily en route to the next field, never after the last
/// one). Appends field names to `path`.
bool ExtractionPath(const ExprPtr& e, std::vector<std::string>* path) {
  switch (e->kind()) {
    case OpKind::kInput:
      return true;
    case OpKind::kDeref:
      return ExtractionPath(e->child(0), path);
    case OpKind::kTupExtract: {
      if (!ExtractionPath(e->child(0), path)) return false;
      path->push_back(e->name());
      return true;
    }
    default:
      return false;
  }
}

/// True when the compared value is a *dereferenced* object (the expression
/// ends in DEREF): the extractor never derefs after the last field, so such
/// keys only line up with an index when more fields follow the deref.
bool EndsInDeref(const ExprPtr& e) { return e->kind() == OpKind::kDeref; }

/// A subscript split around its selection: sub = χ(COMP_θ(opnd)), with χ
/// null when the COMP is the whole subscript. Rule-15 fusion leaves
/// translated plans in this shape (the target list composed over the where
/// clause). Replacing SET_APPLY[sub] by SET_APPLY[χ] over an operator that
/// emits the COMP's non-dne results is exact when χ reaches its INPUT only
/// through (equal copies of) the COMP and maps dne to dne, so occurrences
/// the COMP dropped stay dropped.
struct CompSplit {
  ExprPtr chi;
  ExprPtr comp;
};

/// First COMP over the subscript's free INPUT, outside nested binders.
ExprPtr FindComp(const ExprPtr& e) {
  if (e->kind() == OpKind::kComp) {
    return analysis::ContainsFreeInput(e->child(0)) ? e : nullptr;
  }
  for (const auto& c : e->children()) {
    if (ExprPtr found = FindComp(c)) return found;
  }
  return nullptr;
}

std::optional<CompSplit> PeelComp(const ExprPtr& sub) {
  ExprPtr comp = FindComp(sub);
  if (comp == nullptr) return std::nullopt;
  if (comp == sub) return CompSplit{nullptr, std::move(comp)};
  ExprPtr chi = analysis::ReplaceSubtree(sub, comp, alg::Input());
  if (!analysis::SubstituteInput(chi, comp)->Equals(*sub) ||
      !analysis::DneStrictInInput(chi)) {
    return std::nullopt;
  }
  return CompSplit{std::move(chi), std::move(comp)};
}

/// SET_APPLY[χ](op), or op itself when there is no χ.
ExprPtr Rewrap(const CompSplit& split, ExprPtr op) {
  return split.chi == nullptr ? op
                              : alg::SetApply(split.chi, std::move(op));
}

/// The translator's environment extension over a CROSS pair: tuple
/// constructors over the pair's components. Over two non-null components
/// it is never null, which is what lets a join skip key-mismatched pairs.
bool IsPairConstructor(const ExprPtr& e) {
  switch (e->kind()) {
    case OpKind::kTupCat:
      return IsPairConstructor(e->child(0)) && IsPairConstructor(e->child(1));
    case OpKind::kTupMake:
      return IsPairConstructor(e->child(0));
    case OpKind::kTupExtract:
      return (e->name() == "_1" || e->name() == "_2") &&
             e->child(0)->kind() == OpKind::kInput;
    default:
      return false;
  }
}

using Fields = std::optional<std::vector<std::string>>;

Fields ElementFields(const ExprPtr& set);

/// Field names, in order, of the tuples constructor `c` builds with INPUT
/// bound to an element of the multiset `in`; nullopt when they do not show
/// in the plan's structure (say, an element of a named set).
Fields BuiltFields(const ExprPtr& c, const ExprPtr& in) {
  switch (c->kind()) {
    case OpKind::kTupMake:
      return Fields{{c->name().empty() ? "_1" : c->name()}};
    case OpKind::kTupCat: {
      Fields a = BuiltFields(c->child(0), in);
      Fields b = BuiltFields(c->child(1), in);
      if (!a.has_value() || !b.has_value()) return std::nullopt;
      a->insert(a->end(), b->begin(), b->end());
      return a;
    }
    case OpKind::kComp:
      return BuiltFields(c->child(0), in);
    case OpKind::kInput:
      return ElementFields(in);
    case OpKind::kTupExtract:
      if (c->child(0)->kind() != OpKind::kInput ||
          in->kind() != OpKind::kCross) {
        return std::nullopt;
      }
      if (c->name() == "_1") return ElementFields(in->child(0));
      if (c->name() == "_2") return ElementFields(in->child(1));
      return std::nullopt;
    default:
      return std::nullopt;
  }
}

/// Field names of a multiset's tuple elements, read off the operator that
/// builds them. Lowering runs bottom-up, so the sides of a join may already
/// be physical.
Fields ElementFields(const ExprPtr& set) {
  switch (set->kind()) {
    case OpKind::kCross:
      return Fields{{"_1", "_2"}};
    case OpKind::kSetApply:
      if (!set->type_filter().empty()) return std::nullopt;
      return BuiltFields(set->sub(), set->child(0));
    case OpKind::kDupElim:
      return ElementFields(set->child(0));
    case OpKind::kHashJoin:
    case OpKind::kIndexJoin:
      // The operand sees the pairs of the two sides.
      if (set->sub() == nullptr) return Fields{{"_1", "_2"}};
      return BuiltFields(set->sub(),
                         alg::Cross(set->child(0), set->child(1)));
    case OpKind::kIndexProbe:
      return BuiltFields(set->sub(), nullptr);
    default:
      return std::nullopt;
  }
}

bool HasField(const Fields& f, const std::string& name) {
  return std::find(f->begin(), f->end(), name) != f->end();
}

/// TUP_EXTRACT<name> of what pair constructor `c` builds over a pair of
/// `cross`, resolved to an expression over the pair. TUP_CAT keeps
/// duplicate names and field access takes the first, so the field comes
/// from the leftmost component that has it; every component before it must
/// provably lack it. Null when that cannot be shown.
ExprPtr FieldOf(const std::string& name, const ExprPtr& c,
                const ExprPtr& cross) {
  switch (c->kind()) {
    case OpKind::kTupCat: {
      Fields left = BuiltFields(c->child(0), cross);
      if (!left.has_value()) return nullptr;
      return FieldOf(name, HasField(left, name) ? c->child(0) : c->child(1),
                     cross);
    }
    case OpKind::kTupMake:
      return (c->name().empty() ? "_1" : c->name()) == name ? c->child(0)
                                                            : nullptr;
    default:  // a pair component
      return alg::TupExtract(name, c);
  }
}

/// An extraction path over INPUT, with INPUT bound to pair constructor
/// `opnd`, rewritten into a path over the pair (the work of rules 25
/// extract-from-tupcat and extract-from-tupmake, done on the structure
/// alone). Null for other expressions and for paths that stop inside the
/// constructor.
ExprPtr ReadThrough(const ExprPtr& e, const ExprPtr& opnd,
                    const ExprPtr& cross) {
  auto is_ctor = [](const ExprPtr& x) {
    return x->kind() == OpKind::kTupCat || x->kind() == OpKind::kTupMake;
  };
  switch (e->kind()) {
    case OpKind::kInput:
      return opnd;
    case OpKind::kDeref: {
      ExprPtr x = ReadThrough(e->child(0), opnd, cross);
      if (x == nullptr || is_ctor(x)) return nullptr;
      return alg::Deref(std::move(x));
    }
    case OpKind::kTupExtract: {
      ExprPtr x = ReadThrough(e->child(0), opnd, cross);
      if (x == nullptr) return nullptr;
      return is_ctor(x) ? FieldOf(e->name(), x, cross)
                        : alg::TupExtract(e->name(), std::move(x));
    }
    default:
      return nullptr;
  }
}

/// Matches SET_APPLY[χ(COMP_θ(opnd))](CROSS(A, B)) with an equality atom
/// between the sides and builds SET_APPLY[χ](HASH_JOIN) (or the bare
/// HASH_JOIN), or returns null. opnd is the pair itself or — for joins
/// translated from EXCESS — the environment extension, which the join then
/// evaluates on key-matching pairs. Skipping the other pairs stays exact
/// because their keys are non-null: with extraction-path binders both
/// elements are then non-null, so the operand is too and θ's key atom
/// decides the pair (false).
ExprPtr TryHashJoin(const ExprPtr& e) {
  if (e->kind() != OpKind::kSetApply || !e->type_filter().empty()) {
    return nullptr;
  }
  const ExprPtr& cross = e->child(0);
  if (cross->kind() != OpKind::kCross) return nullptr;
  auto split = PeelComp(e->sub());
  if (!split.has_value()) return nullptr;
  const ExprPtr& opnd = split->comp->child(0);
  const PredicatePtr& theta = split->comp->pred();
  const bool over_pair = opnd->kind() == OpKind::kInput;
  if (!over_pair && !IsPairConstructor(opnd)) return nullptr;

  std::vector<PredicatePtr> conj;
  Conjuncts(theta, &conj);
  std::vector<ExprPtr> lkeys, rkeys;
  for (const auto& c : conj) {
    ExprPtr lk, rk;
    if (over_pair) {
      if (!EquiKeys(*c, &lk, &rk)) continue;
    } else {
      // θ reads the environment: find the keys through the constructor.
      // They must be extraction paths, as a non-strict key could hide a
      // null element.
      if (c->kind != Predicate::Kind::kAtom || c->cmp != CmpOp::kEq) continue;
      ExprPtr lhs = ReadThrough(c->lhs, opnd, cross);
      ExprPtr rhs = ReadThrough(c->rhs, opnd, cross);
      std::vector<std::string> unused;
      if (lhs == nullptr || rhs == nullptr ||
          !EquiKeys(*Predicate::Atom(lhs, CmpOp::kEq, rhs), &lk, &rk) ||
          !ExtractionPath(lk, &unused) || !ExtractionPath(rk, &unused)) {
        continue;
      }
    }
    lkeys.push_back(std::move(lk));
    rkeys.push_back(std::move(rk));
  }
  if (lkeys.empty()) return nullptr;

  ExprPtr lkey, rkey;
  if (lkeys.size() == 1) {
    lkey = std::move(lkeys[0]);
    rkey = std::move(rkeys[0]);
  } else {
    // Composite key: a positional tuple per side. Tuple equality compares
    // positionally on values, so key equality is the conjunction of the
    // atoms; a dne/unk component poisons the whole key through the
    // evaluator's uniform null propagation, which is what routes the
    // element to the right fallback bucket.
    lkey = alg::TupMake(std::move(lkeys[0]));
    rkey = alg::TupMake(std::move(rkeys[0]));
    for (size_t i = 1; i < lkeys.size(); ++i) {
      lkey = alg::TupCat(std::move(lkey), alg::TupMake(std::move(lkeys[i])));
      rkey = alg::TupCat(std::move(rkey), alg::TupMake(std::move(rkeys[i])));
    }
  }
  return Rewrap(*split,
                alg::HashJoin(theta, cross->child(0), cross->child(1),
                              std::move(lkey), std::move(rkey),
                              over_pair ? nullptr : opnd));
}

/// A probe can be hoisted out of the per-element predicate only when it is
/// closed (no free INPUT) and side-effect-free / deterministic (no REF
/// interning, no method dispatch).
bool HoistableProbe(const ExprPtr& e) {
  return !analysis::ContainsFreeInput(e) && analysis::IsParallelSafe(e);
}

const RewriteRule& IndexProbeRule() {
  static const RewriteRule rule{0, "lower-index-probe", true, nullptr};
  return rule;
}

const RewriteRule& IndexJoinRule() {
  static const RewriteRule rule{0, "lower-index-join", true, nullptr};
  return rule;
}

ExprPtr Adopt(const RewriteRule& rule, const LowerCtx& lctx,
              const ExprPtr& before, ExprPtr after) {
  obs::MetricsRegistry::Global()
      .GetCounter("rules.fired." + rule.name)
      ->Increment();
  if (lctx.observer != nullptr) {
    lctx.observer->OnRewrite("lowering", rule, before, after);
  }
  return after;
}

/// Matches SET_APPLY[χ(COMP_θ(opnd))](Var(S)) where χ is a (possibly
/// empty) chain of TUP_EXTRACT/DEREF steps, opnd is a pure extraction path
/// — optionally wrapped in the translator's one-field environment tuple
/// TUP<f>(path) — and θ's ∧-spine holds an atom comparing another
/// extraction path (over the operand result) against a hoistable probe,
/// covered by an index on S over the concatenated path. Returns the
/// cheapest replacement that beats the scan's estimate, or null: the bare
/// IDX_PROBE when χ is empty, else SET_APPLY[χ'(INPUT)](IDX_PROBE) — χ
/// maps the dropped dne and retained unk occurrences exactly as the fused
/// logical subscript did (extraction steps send unk to unk, dne to dne).
ExprPtr TryIndexProbe(const ExprPtr& e, const LowerCtx& lctx) {
  if (lctx.cost == nullptr) return nullptr;
  if (e->kind() != OpKind::kSetApply || !e->type_filter().empty()) {
    return nullptr;
  }
  if (e->child(0)->kind() != OpKind::kVar) return nullptr;
  auto split = PeelComp(e->sub());
  if (!split.has_value()) return nullptr;
  const ExprPtr& sub = split->comp;
  const std::string& set_name = e->child(0)->name();
  std::vector<const SecondaryIndex*> indexes = lctx.db->IndexesOn(set_name);
  if (indexes.empty()) return nullptr;

  // The operand feeds θ its INPUT. A translated range variable arrives as
  // the environment tuple TUP<f>(path): key extraction then starts with
  // TUP_EXTRACT<f>, which cancels against the construction.
  const ExprPtr& opnd = sub->child(0);
  ExprPtr path_base = opnd;
  std::string env_field;
  if (opnd->kind() == OpKind::kTupMake && opnd->num_children() == 1 &&
      !opnd->name().empty()) {
    env_field = opnd->name();
    path_base = opnd->child(0);
  }
  std::vector<std::string> opnd_path;
  if (!ExtractionPath(path_base, &opnd_path)) return nullptr;
  const bool opnd_derefs_last = EndsInDeref(path_base);

  // Every (index, comparison, probe) an atom of θ's ∧-spine can serve.
  struct Served {
    const SecondaryIndex* idx;
    CmpOp cmp;
    ExprPtr probe;
  };
  std::vector<Served> served;
  std::vector<PredicatePtr> conj;
  Conjuncts(sub->pred(), &conj);
  for (const auto& c : conj) {
    if (c->kind != Predicate::Kind::kAtom) continue;
    // Normalize to path-on-the-left: = is symmetric, ordered comparisons
    // mirror, and 'in' only serves the path as the (left) member side.
    struct Form {
      const ExprPtr& path_side;
      const ExprPtr& probe;
      CmpOp cmp;
    };
    std::vector<Form> forms;
    forms.push_back({c->lhs, c->rhs, c->cmp});
    switch (c->cmp) {
      case CmpOp::kEq:
        forms.push_back({c->rhs, c->lhs, CmpOp::kEq});
        break;
      case CmpOp::kLt:
        forms.push_back({c->rhs, c->lhs, CmpOp::kGt});
        break;
      case CmpOp::kLe:
        forms.push_back({c->rhs, c->lhs, CmpOp::kGe});
        break;
      case CmpOp::kGt:
        forms.push_back({c->rhs, c->lhs, CmpOp::kLt});
        break;
      case CmpOp::kGe:
        forms.push_back({c->rhs, c->lhs, CmpOp::kLe});
        break;
      default:
        break;
    }
    for (const Form& f : forms) {
      if (f.cmp == CmpOp::kNe) continue;
      std::vector<std::string> atom_path;
      if (!ExtractionPath(f.path_side, &atom_path)) continue;
      if (EndsInDeref(f.path_side)) continue;
      if (!env_field.empty()) {
        // The leading extraction must address the constructed field; what
        // remains navigates the wrapped path's result.
        if (atom_path.empty() || atom_path[0] != env_field) continue;
        atom_path.erase(atom_path.begin());
      }
      // A trailing deref in the operand is only reachable when the atom
      // navigates on into the dereferenced object.
      if (opnd_derefs_last && atom_path.empty()) continue;
      if (!HoistableProbe(f.probe)) continue;
      std::vector<std::string> full = opnd_path;
      full.insert(full.end(), atom_path.begin(), atom_path.end());
      const bool range_cmp = f.cmp != CmpOp::kEq && f.cmp != CmpOp::kIn;
      for (const SecondaryIndex* idx : indexes) {
        if (idx->def().path != full) continue;
        if (range_cmp && idx->def().kind != IndexKind::kOrdered) continue;
        served.push_back({idx, f.cmp, f.probe});
      }
    }
  }

  if (served.empty()) return nullptr;

  auto base_est = lctx.cost->Estimate(e);
  if (!base_est.ok()) return nullptr;
  double best_total = base_est->total;
  ExprPtr best;
  auto consider = [&](ExprPtr probe) {
    ExprPtr cand = Rewrap(*split, std::move(probe));
    auto est = lctx.cost->Estimate(cand);
    if (!est.ok() || est->total >= best_total) return;
    best_total = est->total;
    best = std::move(cand);
  };
  // A lower and an upper bound on one ordered index walk only the interval
  // between them. Those pairs go first, so they win ties.
  for (const Served& lo : served) {
    if (lo.cmp != CmpOp::kGt && lo.cmp != CmpOp::kGe) continue;
    for (const Served& hi : served) {
      if (hi.idx != lo.idx || (hi.cmp != CmpOp::kLt && hi.cmp != CmpOp::kLe)) {
        continue;
      }
      consider(alg::IndexProbe(lo.idx->def().name, set_name, lo.cmp, lo.probe,
                               opnd, sub->pred(), hi.cmp, hi.probe));
    }
  }
  for (const Served& s : served) {
    consider(alg::IndexProbe(s.idx->def().name, set_name, s.cmp, s.probe, opnd,
                             sub->pred()));
  }
  return best;
}

/// Post-processes a freshly lowered HASH_JOIN: when one side is Var(S) (or
/// a pure extraction-path SET_APPLY over Var(S)) and that side's key binder
/// concatenates with the mapping into the path of an index on S, the join
/// can be served from the index without ever scanning S. Returns the
/// cheapest IDX_JOIN that beats the hash join's estimate, or null.
ExprPtr TryIndexJoin(const ExprPtr& hj, const LowerCtx& lctx) {
  if (lctx.cost == nullptr || hj->kind() != OpKind::kHashJoin) return nullptr;
  auto base_est = lctx.cost->Estimate(hj);
  if (!base_est.ok()) return nullptr;
  double best_total = base_est->total;
  ExprPtr best;
  for (size_t side = 0; side < 2; ++side) {
    const ExprPtr& child = hj->child(side);
    std::string set_name;
    ExprPtr transform;
    if (child->kind() == OpKind::kVar) {
      set_name = child->name();
    } else if (child->kind() == OpKind::kSetApply &&
               child->type_filter().empty() &&
               child->child(0)->kind() == OpKind::kVar) {
      set_name = child->child(0)->name();
      transform = child->sub();
    } else {
      continue;
    }
    std::vector<std::string> path;
    if (transform != nullptr && !ExtractionPath(transform, &path)) continue;
    const ExprPtr& binder = hj->child(2 + side);
    std::vector<std::string> binder_path;
    if (!ExtractionPath(binder, &binder_path)) continue;
    if (EndsInDeref(binder)) continue;
    if (transform != nullptr && EndsInDeref(transform) &&
        binder_path.empty()) {
      continue;  // the dereferenced element is keyed, not the raw one
    }
    path.insert(path.end(), binder_path.begin(), binder_path.end());
    for (const SecondaryIndex* idx : lctx.db->IndexesOn(set_name)) {
      if (idx->def().path != path) continue;
      ExprPtr cand = alg::IndexJoin(
          idx->def().name, static_cast<int64_t>(side), hj->pred(),
          hj->child(0), hj->child(1), hj->child(2), hj->child(3), hj->sub());
      auto est = lctx.cost->Estimate(cand);
      if (!est.ok() || est->total >= best_total) continue;
      best_total = est->total;
      best = std::move(cand);
    }
  }
  return best;
}

ExprPtr LowerNode(const ExprPtr& e, const LowerCtx& lctx);

PredicatePtr LowerPredicate(const PredicatePtr& p, const LowerCtx& lctx) {
  switch (p->kind) {
    case Predicate::Kind::kAtom: {
      ExprPtr l = LowerNode(p->lhs, lctx);
      ExprPtr r = LowerNode(p->rhs, lctx);
      if (l == p->lhs && r == p->rhs) return p;
      return Predicate::Atom(std::move(l), p->cmp, std::move(r));
    }
    case Predicate::Kind::kAnd: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      PredicatePtr b = LowerPredicate(p->b, lctx);
      if (a == p->a && b == p->b) return p;
      return Predicate::And(std::move(a), std::move(b));
    }
    case Predicate::Kind::kOr: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      PredicatePtr b = LowerPredicate(p->b, lctx);
      if (a == p->a && b == p->b) return p;
      return Predicate::Or(std::move(a), std::move(b));
    }
    case Predicate::Kind::kNot: {
      PredicatePtr a = LowerPredicate(p->a, lctx);
      if (a == p->a) return p;
      return Predicate::Not(std::move(a));
    }
    case Predicate::Kind::kTrue:
      return p;
  }
  return p;
}

ExprPtr LowerNode(const ExprPtr& e, const LowerCtx& lctx) {
  if (e == nullptr) return e;
  // Bottom-up: lower children, subscript and predicate operands first, so
  // joins nested under other operators (or inside atoms) are found too.
  bool changed = false;
  std::vector<ExprPtr> kids;
  kids.reserve(e->num_children());
  for (const auto& c : e->children()) {
    ExprPtr nc = LowerNode(c, lctx);
    changed = changed || nc != c;
    kids.push_back(std::move(nc));
  }
  ExprPtr sub = e->sub() != nullptr ? LowerNode(e->sub(), lctx) : nullptr;
  changed = changed || sub != e->sub();
  PredicatePtr pred =
      e->pred() != nullptr ? LowerPredicate(e->pred(), lctx) : nullptr;
  changed = changed || pred != e->pred();
  ExprPtr cur =
      changed ? MakeExpr(e->kind(), std::move(kids), std::move(sub),
                         std::move(pred), e->literal(), e->name(), e->names(),
                         e->type_filter(), e->index(), e->lo(), e->hi(),
                         e->index_is_last(), e->lo_is_last(), e->hi_is_last())
              : e;
  if (ExprPtr hj = TryHashJoin(cur)) {
    // The join may come back under the peeled χ.
    ExprPtr join = hj->kind() == OpKind::kHashJoin ? hj : hj->child(0);
    if (ExprPtr ij = TryIndexJoin(join, lctx)) {
      return Adopt(IndexJoinRule(), lctx, cur,
                   join == hj ? ij : hj->WithChild(0, std::move(ij)));
    }
    return hj;
  }
  if (cur->kind() == OpKind::kHashJoin) {
    // A pre-lowered plan passed through again (e.g. re-optimization).
    if (ExprPtr ij = TryIndexJoin(cur, lctx)) {
      return Adopt(IndexJoinRule(), lctx, cur, std::move(ij));
    }
  }
  if (ExprPtr ip = TryIndexProbe(cur, lctx)) {
    return Adopt(IndexProbeRule(), lctx, cur, std::move(ip));
  }
  return cur;
}

}  // namespace

ExprPtr LowerPhysical(const ExprPtr& plan) {
  LowerCtx lctx;
  return LowerNode(plan, lctx);
}

ExprPtr LowerPhysical(const ExprPtr& plan, const Database* db,
                      const CostParams& params, RewriteObserver* observer) {
  if (db == nullptr) return LowerPhysical(plan);
  CostModel cost(db, params);
  LowerCtx lctx{db, &cost, observer};
  return LowerNode(plan, lctx);
}

}  // namespace excess
