#include "core/cost.h"

#include <algorithm>
#include <cmath>

namespace excess {

namespace {

/// Operators whose result is a multiset or array.
bool IsCollectionOp(OpKind k) {
  switch (k) {
    case OpKind::kAddUnion:
    case OpKind::kSetMake:
    case OpKind::kSetApply:
    case OpKind::kGroup:
    case OpKind::kDupElim:
    case OpKind::kDiff:
    case OpKind::kCross:
    case OpKind::kSetCollapse:
    case OpKind::kArrMake:
    case OpKind::kArrApply:
    case OpKind::kSubArr:
    case OpKind::kArrCat:
    case OpKind::kArrCollapse:
    case OpKind::kArrDiff:
    case OpKind::kArrDupElim:
    case OpKind::kArrCross:
    case OpKind::kHashJoin:
    case OpKind::kIndexProbe:
    case OpKind::kIndexJoin:
      return true;
    default:
      return false;
  }
}

/// Share of ordered index `idx` a two-bound IDX_PROBE `e` walks,
/// interpolated over the first and last keys when both bounds are numeric
/// constants; `fallback` otherwise.
double IntervalShare(const SecondaryIndex& idx, const Expr& e,
                     double fallback) {
  const auto& buckets = idx.ordered_buckets();
  if (buckets.empty()) return fallback;
  auto numeric = [](const ValuePtr& v) {
    return v != nullptr && v->IsNumeric() && !std::isnan(v->NumericValue());
  };
  const ValuePtr& lo = e.child(0)->literal();
  const ValuePtr& hi = e.child(1)->literal();
  const ValuePtr& first = buckets.begin()->first;
  const ValuePtr& last = buckets.rbegin()->first;
  if (!numeric(lo) || !numeric(hi) || !numeric(first) || !numeric(last)) {
    return fallback;
  }
  double span = last->NumericValue() - first->NumericValue();
  if (span <= 0) return fallback;
  double covered = std::min(hi->NumericValue(), last->NumericValue()) -
                   std::max(lo->NumericValue(), first->NumericValue());
  return std::clamp(covered / span, 0.0, 1.0);
}

}  // namespace

double CostModel::PredicateCost(const Predicate& p, double input_card) const {
  switch (p.kind) {
    case Predicate::Kind::kAtom: {
      double c = 1;
      auto l = EstimateNode(*p.lhs, input_card);
      auto r = EstimateNode(*p.rhs, input_card);
      if (l.ok()) c += l->total;
      if (r.ok()) c += r->total;
      return c;
    }
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr:
      return PredicateCost(*p.a, input_card) + PredicateCost(*p.b, input_card);
    case Predicate::Kind::kNot:
      return PredicateCost(*p.a, input_card);
    case Predicate::Kind::kTrue:
      return 0;
  }
  return 0;
}

double CostModel::OpndCost(const Expr& e) const {
  if (e.sub() == nullptr) return 0;
  auto per = EstimateNode(*e.sub(), /*input_card=*/1);
  return per.ok() ? per->total : 0;
}

Result<CostEstimate> CostModel::EstimateNode(const Expr& e,
                                             double input_card) const {
  auto child = [&](size_t i) { return EstimateNode(*e.child(i), input_card); };

  switch (e.kind()) {
    case OpKind::kInput:
      return CostEstimate{input_card, 0};
    case OpKind::kConst: {
      double card = 1;
      if (e.literal() != nullptr && e.literal()->is_set()) {
        card = static_cast<double>(e.literal()->TotalCount());
      } else if (e.literal() != nullptr && e.literal()->is_array()) {
        card = static_cast<double>(e.literal()->ArrayLength());
      }
      return CostEstimate{card, 0};
    }
    case OpKind::kVar: {
      // Exact root statistics: the named object is in memory.
      double card = 1;
      auto v = db_->NamedValue(e.name());
      if (v.ok()) {
        if ((*v)->is_set()) card = static_cast<double>((*v)->TotalCount());
        if ((*v)->is_array()) card = static_cast<double>((*v)->ArrayLength());
      }
      return CostEstimate{card, card};  // a scan
    }
    case OpKind::kParam:
      return CostEstimate{1, 0};

    case OpKind::kSetApply:
    case OpKind::kArrApply: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      // The subscript's INPUT is one element of the input collection;
      // grouped inputs hand it a whole group's worth of occurrences.
      EXA_ASSIGN_OR_RETURN(
          CostEstimate per,
          EstimateNode(*e.sub(), /*input_card=*/in.elem_cardinality));
      double out_card = in.cardinality;
      // A COMP-rooted subscript acts as a selection.
      if (e.sub()->kind() == OpKind::kComp) out_card *= params_.selectivity;
      if (!e.type_filter().empty()) out_card *= 0.5;  // one type's share
      CostEstimate out{out_card, in.total + in.cardinality * (per.total + 1)};
      // Each produced element is one subscript result: a collection-valued
      // subscript hands its estimated size on (SET_COLLAPSE reads it).
      out.elem_cardinality = per.cardinality;
      return out;
    }
    case OpKind::kGroup: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate key,
                           EstimateNode(*e.sub(), /*input_card=*/1));
      double groups =
          std::max(1.0, in.cardinality * params_.groups_per_input);
      CostEstimate out{groups,
                       in.total + in.cardinality * (key.total + 1)};
      out.elem_cardinality = in.cardinality / groups;  // average group size
      return out;
    }
    case OpKind::kDupElim:
    case OpKind::kArrDupElim: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{std::max(1.0, in.cardinality * params_.dup_factor),
                          in.total + in.cardinality};
    }
    case OpKind::kCross:
    case OpKind::kArrCross: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      double card = a.cardinality * b.cardinality;
      return CostEstimate{card, a.total + b.total + card};
    }
    case OpKind::kAddUnion:
    case OpKind::kArrCat: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      double card = a.cardinality + b.cardinality;
      return CostEstimate{card, a.total + b.total + card};
    }
    case OpKind::kDiff:
    case OpKind::kArrDiff: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      return CostEstimate{std::max(1.0, a.cardinality * 0.5),
                          a.total + b.total + a.cardinality + b.cardinality};
    }
    case OpKind::kSetCollapse:
    case OpKind::kArrCollapse: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      // The members' size is estimated when they are built by an apply
      // with a collection-valued subscript or by GRP; a fixed fan-out
      // stands in for stored nested collections.
      const Expr& c = *e.child(0);
      const bool built = c.kind() == OpKind::kGroup ||
                         ((c.kind() == OpKind::kSetApply ||
                           c.kind() == OpKind::kArrApply) &&
                          IsCollectionOp(c.sub()->kind()));
      double card = in.cardinality *
                    (built ? in.elem_cardinality : params_.avg_inner_set);
      return CostEstimate{card, in.total + card};
    }
    case OpKind::kSetMake:
    case OpKind::kArrMake: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + 1};
    }

    case OpKind::kProject:
    case OpKind::kTupExtract:
    case OpKind::kTupMake: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + in.live, in.live};
    }
    case OpKind::kTupCat: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      double live = std::min(a.live, b.live);
      return CostEstimate{1, a.total + b.total + live, live};
    }

    case OpKind::kArrExtract: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + in.live, in.live};
    }
    case OpKind::kSubArr: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      double span = e.hi() >= e.lo() && !e.lo_is_last() && !e.hi_is_last()
                        ? static_cast<double>(e.hi() - e.lo() + 1)
                        : std::max(1.0, in.cardinality * 0.5);
      double card = std::min(in.cardinality, span);
      return CostEstimate{card, in.total + card};
    }

    case OpKind::kRef: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + 2 * in.live, in.live};
    }
    case OpKind::kDeref: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + params_.deref_cost * in.live,
                          in.live};
    }

    case OpKind::kComp: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      // Downstream work only happens when the predicate passed: liveness
      // shrinks by the selectivity, modelling uniform null propagation.
      return CostEstimate{
          in.cardinality,
          in.total + in.live * PredicateCost(*e.pred(), input_card),
          in.live * params_.selectivity};
    }

    case OpKind::kArith: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      double live = std::min(a.live, b.live);
      return CostEstimate{1, a.total + b.total + live, live};
    }
    case OpKind::kAgg: {
      EXA_ASSIGN_OR_RETURN(CostEstimate in, child(0));
      return CostEstimate{1, in.total + in.cardinality};
    }
    case OpKind::kHashJoin: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      // Build + probe touch each input once; θ is only re-evaluated on the
      // key-matching share of the pairs, modelled by the selectivity.
      double matches =
          std::max(1.0, a.cardinality * b.cardinality * params_.selectivity);
      double pred = PredicateCost(*e.pred(), /*input_card=*/1) + OpndCost(e);
      return CostEstimate{matches, a.total + b.total + a.cardinality +
                                       b.cardinality + matches * (pred + 1)};
    }
    case OpKind::kIndexProbe: {
      double probes = 0;
      for (size_t i = 0; i < e.num_children(); ++i) {
        EXA_ASSIGN_OR_RETURN(CostEstimate probe, child(i));
        probes += probe.total;
      }
      EXA_ASSIGN_OR_RETURN(CostEstimate per,
                           EstimateNode(*e.sub(), /*input_card=*/1));
      double pred = PredicateCost(*e.pred(), /*input_card=*/1);
      // Exact base statistics, like kVar.
      double base_card = 1;
      if (!e.names().empty()) {
        auto v = db_->NamedValue(e.names()[0]);
        if (v.ok() && (*v)->is_set()) {
          base_card = static_cast<double>((*v)->TotalCount());
        }
      }
      const SecondaryIndex* idx = db_->FindIndex(e.name());
      double candidates = base_card;  // fallback is an exact scan
      double out_card = std::max(1.0, base_card * params_.selectivity);
      if (idx != nullptr && idx->Usable()) {
        CmpOp cmp = static_cast<CmpOp>(e.index());
        if (cmp == CmpOp::kEq || cmp == CmpOp::kIn) {
          // One bucket holds the matches and the unk partition rides along.
          double buckets = std::max<double>(1, idx->distinct_keys());
          candidates = static_cast<double>(idx->keyed_total()) / buckets +
                       static_cast<double>(idx->unk_entries().size());
        } else if (e.num_children() == 1) {
          candidates = base_card * params_.selectivity;  // range share
        } else {
          // Two range atoms: the selectivity squared, unless the interval
          // can be placed on the keys. Never more than either one-bound
          // walk it narrows.
          const double sel = params_.selectivity;
          candidates =
              base_card * std::min(sel, IntervalShare(*idx, e, sel * sel));
        }
        candidates = std::max(1.0, candidates);
        out_card = candidates;
      }
      return CostEstimate{out_card,
                          probes + 1 + candidates * (per.total + pred + 1)};
    }
    case OpKind::kIndexJoin: {
      EXA_ASSIGN_OR_RETURN(CostEstimate a, child(0));
      EXA_ASSIGN_OR_RETURN(CostEstimate b, child(1));
      const CostEstimate& outer = e.index() == 0 ? b : a;
      double pred = PredicateCost(*e.pred(), /*input_card=*/1) + OpndCost(e);
      const SecondaryIndex* idx = db_->FindIndex(e.name());
      if (idx == nullptr || !idx->Usable()) {
        // Fallback is EvalHashJoin: same estimate as HASH_JOIN.
        double matches = std::max(
            1.0, a.cardinality * b.cardinality * params_.selectivity);
        return CostEstimate{matches, a.total + b.total + a.cardinality +
                                         b.cardinality + matches * (pred + 1)};
      }
      // The indexed side is never scanned (its subtree cost disappears);
      // each outer key probes one bucket of the index.
      double buckets = std::max<double>(1, idx->distinct_keys());
      double avg_bucket = std::max(
          1.0, static_cast<double>(idx->keyed_total()) / buckets +
                   static_cast<double>(idx->unk_entries().size()));
      double matches = std::max(1.0, outer.cardinality * avg_bucket);
      return CostEstimate{
          matches, outer.total + outer.cardinality +
                       matches * (pred + 1 + params_.deref_cost)};
    }
    case OpKind::kMethodCall: {
      double total = params_.method_cost;
      for (size_t i = 0; i < e.num_children(); ++i) {
        EXA_ASSIGN_OR_RETURN(CostEstimate c, child(i));
        total += c.total;
      }
      return CostEstimate{1, total};
    }
  }
  return Status::Internal("unknown operator kind in cost model");
}

}  // namespace excess
