#include "core/analysis.h"
#include "core/builder.h"
#include "core/infer.h"
#include "core/rules.h"

namespace excess {

namespace {

using analysis::ContainsFreeInput;
using analysis::DependsOnlyOnField;
using analysis::StripFieldExtract;
using analysis::SubstituteInput;

bool IsPlainSetApply(const ExprPtr& e) {
  return e->kind() == OpKind::kSetApply && e->type_filter().empty();
}

/// True when re-evaluating `e` once per group is certainly cheap/safe
/// (rule 9 moves the unused cross input into a subscript, where it is
/// re-evaluated per group).
bool CheapToReplicate(const ExprPtr& e) {
  return e->kind() == OpKind::kVar || e->kind() == OpKind::kConst;
}

/// A closed collection that always evaluates to a multiset: a named
/// multiset or a multiset literal.
bool IsStoredOrLiteralSet(const ExprPtr& e, const RuleContext& ctx) {
  if (e->kind() == OpKind::kConst) {
    return e->literal() != nullptr && e->literal()->is_set();
  }
  if (e->kind() != OpKind::kVar || ctx.db == nullptr) return false;
  auto v = ctx.db->NamedValue(e->name());
  return v.ok() && (*v)->is_set();
}

/// σ_P(INPUT) — a selection applied to the whole bound element.
std::optional<PredicatePtr> MatchSelectOfInput(const ExprPtr& e) {
  auto pred = patterns::MatchSelect(e);
  if (!pred.has_value()) return std::nullopt;
  if (e->child(0)->kind() != OpKind::kInput) return std::nullopt;
  return pred;
}

/// Every free INPUT occurrence in `e` is consumed through a field access
/// (TUP_EXTRACT or PI), never used whole — the condition under which an
/// enrichment field added by rule 26 is invisible downstream.
bool UsesInputOnlyThroughFields(const ExprPtr& e) {
  if (e->kind() == OpKind::kInput) return false;
  if ((e->kind() == OpKind::kTupExtract || e->kind() == OpKind::kProject) &&
      e->child(0)->kind() == OpKind::kInput) {
    return true;
  }
  for (const auto& c : e->children()) {
    if (!UsesInputOnlyThroughFields(c)) return false;
  }
  return true;
}

bool PredUsesInputOnlyThroughFields(const PredicatePtr& p) {
  switch (p->kind) {
    case Predicate::Kind::kAtom:
      return UsesInputOnlyThroughFields(p->lhs) &&
             UsesInputOnlyThroughFields(p->rhs);
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return PredUsesInputOnlyThroughFields(p->a) &&
             PredUsesInputOnlyThroughFields(p->b);
    case Predicate::Kind::kNot:
      return PredUsesInputOnlyThroughFields(p->a);
    case Predicate::Kind::kTrue:
      return true;
  }
  return true;
}

}  // namespace

void RegisterMultisetRules(RuleSet* directed, RuleSet* exploratory) {
  // --- Rule 1: associativity of ⊎ (and of the derived ∪/∩ through their
  // expansions). Exploratory: a pure re-association choice.
  exploratory->Add({1, "addunion-assoc-left",
                    false,
                    [](const ExprPtr& e, const RuleContext&)
                        -> std::optional<ExprPtr> {
                      if (e->kind() != OpKind::kAddUnion) return std::nullopt;
                      const ExprPtr& rhs = e->child(1);
                      if (rhs->kind() != OpKind::kAddUnion) return std::nullopt;
                      // A ⊎ (B ⊎ C) -> (A ⊎ B) ⊎ C
                      return alg::AddUnion(
                          alg::AddUnion(e->child(0), rhs->child(0)),
                          rhs->child(1));
                    }});
  exploratory->Add({1, "addunion-assoc-right",
                    false,
                    [](const ExprPtr& e, const RuleContext&)
                        -> std::optional<ExprPtr> {
                      if (e->kind() != OpKind::kAddUnion) return std::nullopt;
                      const ExprPtr& lhs = e->child(0);
                      if (lhs->kind() != OpKind::kAddUnion) return std::nullopt;
                      // (A ⊎ B) ⊎ C -> A ⊎ (B ⊎ C)
                      return alg::AddUnion(
                          lhs->child(0),
                          alg::AddUnion(lhs->child(1), e->child(1)));
                    }});

  // --- Rule 2: distribution of × over ⊎, both directions.
  exploratory->Add(
      {2, "cross-distributes-over-addunion",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kCross) return std::nullopt;
         const ExprPtr& rhs = e->child(1);
         if (rhs->kind() != OpKind::kAddUnion) return std::nullopt;
         // A × (B ⊎ C) -> (A × B) ⊎ (A × C)
         return alg::AddUnion(alg::Cross(e->child(0), rhs->child(0)),
                              alg::Cross(e->child(0), rhs->child(1)));
       }});
  exploratory->Add(
      {2, "cross-factor-addunion",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kAddUnion) return std::nullopt;
         const ExprPtr& l = e->child(0);
         const ExprPtr& r = e->child(1);
         if (l->kind() != OpKind::kCross || r->kind() != OpKind::kCross) {
           return std::nullopt;
         }
         if (!l->child(0)->Equals(*r->child(0))) return std::nullopt;
         // (A × B) ⊎ (A × C) -> A × (B ⊎ C)
         return alg::Cross(l->child(0),
                           alg::AddUnion(l->child(1), r->child(1)));
       }});

  // --- Rule 3: rel_x commutativity (matching the derived encoding:
  // SET_APPLY with the pair-flattening subscript over ×).
  exploratory->Add(
      {3, "relcross-commute",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         if (!patterns::IsPairFlatten(e->sub())) return std::nullopt;
         const ExprPtr& cross = e->child(0);
         if (cross->kind() != OpKind::kCross) return std::nullopt;
         return alg::RelCross(cross->child(1), cross->child(0));
       }});

  // --- Rule 4: σ_{P1 ∨ P2}(A) = σ_P1(A) ∪ σ_P2(A) (∪ = max-union).
  exploratory->Add(
      {4, "split-disjunctive-selection",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         auto pred = patterns::MatchSelect(e);
         if (!pred.has_value()) return std::nullopt;
         if ((*pred)->kind != Predicate::Kind::kOr) return std::nullopt;
         const ExprPtr& in = e->child(0);
         return alg::Union(alg::Select((*pred)->a, in),
                           alg::Select((*pred)->b, in));
       }});

  // --- Rule 5: DE(SET_APPLY_E(A × B)) = DE(SET_APPLY_{E'}(A)) when E
  // applies only to the A side (and B is assumed non-empty; see DESIGN.md).
  // Symmetric variant for the B side.
  directed->Add(
      {5, "eliminate-cross-under-de",
       true,
       [](const ExprPtr& e, const RuleContext& ctx) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kDupElim || !ctx.assume_nonempty) {
           return std::nullopt;
         }
         const ExprPtr& apply = e->child(0);
         if (!IsPlainSetApply(apply)) return std::nullopt;
         const ExprPtr& cross = apply->child(0);
         if (cross->kind() != OpKind::kCross) return std::nullopt;
         const ExprPtr& sub = apply->sub();
         if (DependsOnlyOnField(sub, "_1")) {
           return alg::DupElim(alg::SetApply(StripFieldExtract(sub, "_1"),
                                             cross->child(0)));
         }
         if (DependsOnlyOnField(sub, "_2")) {
           return alg::DupElim(alg::SetApply(StripFieldExtract(sub, "_2"),
                                             cross->child(1)));
         }
         return std::nullopt;
       }});

  // --- Rule 6: DE(GRP_E(A)) = GRP_E(A): groups are pairwise disjoint,
  // hence already distinct.
  directed->Add(
      {6, "de-of-group-is-group",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kDupElim) return std::nullopt;
         if (e->child(0)->kind() != OpKind::kGroup) return std::nullopt;
         return e->child(0);
       }});

  // --- Rule 7: DE(A × B) = DE(A) × DE(B); beneficial direction pushes DE
  // below the product.
  directed->Add(
      {7, "distribute-de-over-cross",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kDupElim) return std::nullopt;
         const ExprPtr& cross = e->child(0);
         if (cross->kind() != OpKind::kCross) return std::nullopt;
         return alg::Cross(alg::DupElim(cross->child(0)),
                           alg::DupElim(cross->child(1)));
       }});

  // --- Rule 8: GRP_E(DE(A)) = SET_APPLY_{DE}(GRP_E(A)); the beneficial
  // direction (Fig. 7) removes duplicates before grouping.
  directed->Add(
      {8, "de-before-group",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!patterns::MatchApplyDupElim(e)) return std::nullopt;
         const ExprPtr& grp = e->child(0);
         if (grp->kind() != OpKind::kGroup) return std::nullopt;
         return alg::Group(grp->sub(), alg::DupElim(grp->child(0)));
       }});
  exploratory->Add(
      {8, "group-then-de-per-group",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kGroup) return std::nullopt;
         const ExprPtr& de = e->child(0);
         if (de->kind() != OpKind::kDupElim) return std::nullopt;
         return alg::SetApply(alg::DupElim(alg::Input()),
                              alg::Group(e->sub(), de->child(0)));
       }});

  // --- Rule 9: GRP_E(A × B) = SET_APPLY_{INPUT × B}(GRP_{E'}(A)) when E
  // applies only to A. Directed only when B is trivially replicable.
  directed->Add(
      {9, "group-cross-one-sided",
       true,
       [](const ExprPtr& e, const RuleContext& ctx) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kGroup || !ctx.assume_nonempty) {
           return std::nullopt;
         }
         const ExprPtr& cross = e->child(0);
         if (cross->kind() != OpKind::kCross) return std::nullopt;
         if (!CheapToReplicate(cross->child(1))) return std::nullopt;
         const ExprPtr& key = e->sub();
         if (!DependsOnlyOnField(key, "_1")) return std::nullopt;
         return alg::SetApply(
             alg::Cross(alg::Input(), cross->child(1)),
             alg::Group(StripFieldExtract(key, "_1"), cross->child(0)));
       }});

  // --- Rule 10: GRP_E1(σ_E2(A)) = SET_APPLY_{σ_E2}(GRP_E1(A)); the
  // beneficial direction (Fig. 11) pushes the selection ahead of grouping.
  // Exact modulo groups a per-group selection would leave empty (see
  // DESIGN.md); the equivalence tests normalize for this.
  directed->Add(
      {10, "selection-before-group",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         auto pred = MatchSelectOfInput(e->sub());
         if (!pred.has_value()) return std::nullopt;
         if (e->sub()->child(0)->kind() != OpKind::kInput) return std::nullopt;
         const ExprPtr& grp = e->child(0);
         if (grp->kind() != OpKind::kGroup) return std::nullopt;
         return alg::Group(grp->sub(), alg::Select(*pred, grp->child(0)));
       }});

  // --- Rule 11: SET_COLLAPSE(A ⊎ B) = SET_COLLAPSE(A) ⊎ SET_COLLAPSE(B).
  exploratory->Add(
      {11, "collapse-distributes-over-addunion",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kSetCollapse) return std::nullopt;
         const ExprPtr& u = e->child(0);
         if (u->kind() != OpKind::kAddUnion) return std::nullopt;
         return alg::AddUnion(alg::SetCollapse(u->child(0)),
                              alg::SetCollapse(u->child(1)));
       }});

  // --- Rule 12: SET_APPLY_E(A ⊎ B) = SET_APPLY_E(A) ⊎ SET_APPLY_E(B).
  exploratory->Add(
      {12, "apply-distributes-over-addunion",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         const ExprPtr& u = e->child(0);
         if (u->kind() != OpKind::kAddUnion) return std::nullopt;
         return alg::AddUnion(alg::SetApply(e->sub(), u->child(0)),
                              alg::SetApply(e->sub(), u->child(1)));
       }});
  exploratory->Add(
      {12, "apply-factor-addunion",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kAddUnion) return std::nullopt;
         const ExprPtr& l = e->child(0);
         const ExprPtr& r = e->child(1);
         if (!IsPlainSetApply(l) || !IsPlainSetApply(r)) return std::nullopt;
         if (!l->sub()->Equals(*r->sub())) return std::nullopt;
         return alg::SetApply(l->sub(),
                              alg::AddUnion(l->child(0), r->child(0)));
       }});

  // --- Rule 13: SET_APPLY over × splits into per-input SET_APPLYs when the
  // subscript builds its result independently from the two pair components:
  // SET_APPLY_{TUP_CAT(L,R)}(A × B)
  //   = rel-flatten(SET_APPLY_{L'}(A) × SET_APPLY_{R'}(B)).
  // This is the multiset engine behind relational projection pushdown into
  // joins (together with rules 24 and 27, as the Appendix notes).
  directed->Add(
      {13, "apply-distributes-over-cross",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         const ExprPtr& cross = e->child(0);
         if (cross->kind() != OpKind::kCross) return std::nullopt;
         const ExprPtr& sub = e->sub();
         if (sub->kind() != OpKind::kTupCat) return std::nullopt;
         if (patterns::IsPairFlatten(sub)) return std::nullopt;  // no-op form
         const ExprPtr& l = sub->child(0);
         const ExprPtr& r = sub->child(1);
         if (!DependsOnlyOnField(l, "_1") || !DependsOnlyOnField(r, "_2")) {
           return std::nullopt;
         }
         ExprPtr left = alg::SetApply(StripFieldExtract(l, "_1"),
                                      cross->child(0));
         ExprPtr right = alg::SetApply(StripFieldExtract(r, "_2"),
                                       cross->child(1));
         return alg::SetApply(
             alg::TupCat(alg::TupExtract("_1", alg::Input()),
                         alg::TupExtract("_2", alg::Input())),
             alg::Cross(std::move(left), std::move(right)));
       }});

  // --- Rule 14: SET_APPLY_E(SET_COLLAPSE(A)) =
  //              SET_COLLAPSE(SET_APPLY_{SET_APPLY_E}(A)).
  exploratory->Add(
      {14, "push-apply-inside-collapse",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         const ExprPtr& coll = e->child(0);
         if (coll->kind() != OpKind::kSetCollapse) return std::nullopt;
         return alg::SetCollapse(alg::SetApply(
             alg::SetApply(e->sub(), alg::Input()), coll->child(0)));
       }});
  exploratory->Add(
      {14, "pull-apply-out-of-collapse",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kSetCollapse) return std::nullopt;
         const ExprPtr& outer = e->child(0);
         if (!IsPlainSetApply(outer)) return std::nullopt;
         const ExprPtr& sub = outer->sub();
         if (!IsPlainSetApply(sub)) return std::nullopt;
         if (sub->child(0)->kind() != OpKind::kInput) return std::nullopt;
         return alg::SetApply(sub->sub(),
                              alg::SetCollapse(outer->child(0)));
       }});

  // --- Rule 15: combine successive SET_APPLYs by composing subscripts.
  // The inner scan may carry a §4 exact-type filter (the filter selects
  // *source* elements, which composition preserves); the outer must not
  // (its filter would inspect intermediate results).
  directed->Add(
      {15, "combine-set-applys",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         const ExprPtr& inner = e->child(0);
         if (inner->kind() != OpKind::kSetApply) return std::nullopt;
         // The outer APPLY never sees occurrences the inner one dropped as
         // dne; after composition that dropping only survives if the inner
         // subscript's dne poisons the composed expression.
         if (analysis::MayProduceDne(inner->sub(),
                                     /*input_may_be_dne=*/false) &&
             !analysis::DneStrictInInput(e->sub())) {
           return std::nullopt;
         }
         return alg::SetApply(SubstituteInput(e->sub(), inner->sub()),
                              inner->child(0), inner->type_filter());
       }});

  // --- Decorrelation (an Appendix-style consequence of rules 14 and 15,
  // not numbered in the paper). The translator binds a second range
  // variable by pairing each environment with the whole collection:
  //   SET_COLLAPSE(SET_APPLY[SET_APPLY[f](CROSS(SET(g), B))](A))
  //     = SET_APPLY[f](CROSS(SET_APPLY[g](A), B))     B closed
  // When B does not depend on the environment, every environment meets the
  // same B, so one product over all environments replaces the per-element
  // loop — the CROSS the join lowerings recognize. g's dne results drop on
  // both sides; B must be a stored or literal multiset, so it is never a
  // null the product would propagate. Cardinalities multiply identically.
  directed->Add(
      {0, "decorrelate-cross",
       true,
       [](const ExprPtr& e, const RuleContext& ctx) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kSetCollapse) return std::nullopt;
         const ExprPtr& outer = e->child(0);
         if (outer->kind() != OpKind::kSetApply) return std::nullopt;
         const ExprPtr& inner = outer->sub();
         if (!IsPlainSetApply(inner)) return std::nullopt;
         const ExprPtr& cross = inner->child(0);
         if (cross->kind() != OpKind::kCross ||
             cross->child(0)->kind() != OpKind::kSetMake) {
           return std::nullopt;
         }
         const ExprPtr& b = cross->child(1);
         if (!IsStoredOrLiteralSet(b, ctx)) return std::nullopt;
         const ExprPtr& g = cross->child(0)->child(0);
         ExprPtr envs = g->kind() == OpKind::kInput && IsPlainSetApply(outer)
                            ? outer->child(0)
                            : alg::SetApply(g, outer->child(0),
                                            outer->type_filter());
         return alg::SetApply(inner->sub(), alg::Cross(std::move(envs), b));
       }});

  // --- Identity cleanups (not numbered in the paper; standard).
  directed->Add(
      {0, "apply-identity-elim",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e) && e->kind() != OpKind::kArrApply) {
           return std::nullopt;
         }
         if (e->kind() == OpKind::kSetApply && !e->type_filter().empty()) {
           return std::nullopt;
         }
         if (e->sub()->kind() != OpKind::kInput) return std::nullopt;
         return e->child(0);
       }});
  directed->Add(
      {0, "comp-true-elim",
       true,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (e->kind() != OpKind::kComp) return std::nullopt;
         if (e->pred()->kind != Predicate::Kind::kTrue) return std::nullopt;
         return e->child(0);
       }});

  // --- Rule 26 instance (Figure 11): push an enrichment projection inside
  // COMP so a DEREF shared by the selection predicate and the grouping key
  // is materialized once. Exploratory, not directed: the paper itself notes
  // "this rule helps here (it does not always help)" — whether saving a
  // DEREF pays for building the enriched tuple depends on how expensive
  // dereferencing is, which is the cost model's call. Matches
  //   SET_APPLY_F(GRP_K(σ_P(A)))
  // where F consumes group members only through fields, and P and K share
  // a DEREF-rooted subexpression D over INPUT. Rewrites to
  //   SET_APPLY_F(GRP_{K[D:=$m]}(SET_APPLY_{COMP_{P[D:=$m]}(H)}(A)))
  // with H = TUP_CAT(INPUT, ("$m": D)) the enrichment of each element.
  exploratory->Add(
      {26, "push-enrichment-into-comp",
       false,
       [](const ExprPtr& e, const RuleContext&) -> std::optional<ExprPtr> {
         if (!IsPlainSetApply(e)) return std::nullopt;
         const ExprPtr& f = e->sub();
         if (!IsPlainSetApply(f) || f->child(0)->kind() != OpKind::kInput) {
           return std::nullopt;
         }
         if (!UsesInputOnlyThroughFields(f->sub())) return std::nullopt;
         const ExprPtr& grp = e->child(0);
         if (grp->kind() != OpKind::kGroup) return std::nullopt;
         auto pred = patterns::MatchSelect(grp->child(0));
         if (!pred.has_value()) return std::nullopt;
         if (!PredUsesInputOnlyThroughFields(*pred)) return std::nullopt;
         auto shared = analysis::FindSharedDeref(*pred, grp->sub());
         if (!shared.has_value()) return std::nullopt;
         ExprPtr materialized = alg::TupExtract("$m", alg::Input());
         // H: concatenate the element with a 1-field tuple ($m: D).
         ExprPtr enrich = alg::TupCat(
             alg::Input(),
             MakeExpr(OpKind::kTupMake, {*shared}, nullptr, nullptr, nullptr,
                      "$m", {}, "", 0, 0, 0, false, false, false));
         PredicatePtr new_pred =
             analysis::PredReplaceSubtree(*pred, *shared, materialized);
         ExprPtr new_key =
             analysis::ReplaceSubtree(grp->sub(), *shared, materialized);
         ExprPtr filtered = alg::SetApply(
             alg::Comp(std::move(new_pred), enrich), grp->child(0)->child(0));
         return alg::SetApply(e->sub(),
                              alg::Group(std::move(new_key),
                                         std::move(filtered)));
       }});
}

}  // namespace excess
