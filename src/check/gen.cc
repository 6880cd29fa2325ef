#include "check/gen.h"

#include <cmath>
#include <utility>

#include "catalog/catalog.h"
#include "core/builder.h"
#include "objects/store.h"
#include "util/string_util.h"

namespace excess {
namespace check {

using namespace alg;  // NOLINT(build/namespaces)

ValuePtr RandomIntScalar(Rng* rng, const GenOptions& opts) {
  if (opts.with_nulls && rng->Chance(1, 10)) return Value::Unk();
  return Value::Int(rng->Int(0, 7));
}

ValuePtr RandomIntSet(Rng* rng, const GenOptions& opts) {
  std::vector<SetEntry> entries;
  int n = static_cast<int>(rng->Int(0, opts.max_set_size));
  for (int i = 0; i < n; ++i) {
    entries.push_back({RandomIntScalar(rng, opts), rng->Int(1, 3)});
  }
  return Value::SetOfCounted(std::move(entries));
}

ValuePtr RandomPairSet(Rng* rng, const GenOptions& opts) {
  std::vector<ValuePtr> elems;
  int n = static_cast<int>(rng->Int(0, opts.max_set_size));
  for (int i = 0; i < n; ++i) {
    elems.push_back(Value::Tuple(
        {"k", "v"}, {RandomIntScalar(rng, opts), RandomIntScalar(rng, opts)}));
  }
  return Value::SetOf(elems);
}

ValuePtr RandomNestedSet(Rng* rng, const GenOptions& opts) {
  std::vector<ValuePtr> elems;
  int n = static_cast<int>(rng->Int(0, 4));
  GenOptions inner = opts;
  inner.max_set_size = 3;
  for (int i = 0; i < n; ++i) elems.push_back(RandomIntSet(rng, inner));
  return Value::SetOf(elems);
}

ValuePtr RandomIntArray(Rng* rng, const GenOptions& opts) {
  std::vector<ValuePtr> elems;
  int n = static_cast<int>(rng->Int(0, opts.max_array_len));
  for (int i = 0; i < n; ++i) elems.push_back(RandomIntScalar(rng, opts));
  return Value::ArrayOf(std::move(elems));
}

Status BuildRandomDatabase(Rng* rng, const GenOptions& opts, Database* db,
                           GenDb* out) {
  *out = GenDb();
  SchemaPtr int_set = Schema::Set(IntSchema());
  SchemaPtr pair = Schema::Tup({{"k", IntSchema()}, {"v", IntSchema()}});
  for (int i = 0; i < 2; ++i) {
    std::string name = StrCat("Ints", i);
    EXA_RETURN_NOT_OK(db->CreateNamed(name, int_set, RandomIntSet(rng, opts)));
    out->int_sets.push_back(std::move(name));
  }
  for (int i = 0; i < 2; ++i) {
    std::string name = StrCat("Pairs", i);
    EXA_RETURN_NOT_OK(
        db->CreateNamed(name, Schema::Set(pair), RandomPairSet(rng, opts)));
    out->pair_sets.push_back(std::move(name));
  }
  {
    EXA_RETURN_NOT_OK(db->CreateNamed("Nested0", Schema::Set(int_set),
                                      RandomNestedSet(rng, opts)));
    out->nested_sets.push_back("Nested0");
  }
  {
    EXA_RETURN_NOT_OK(db->CreateNamed("Arr0", Schema::Arr(IntSchema()),
                                      RandomIntArray(rng, opts)));
    out->int_arrays.push_back("Arr0");
  }
  if (opts.with_refs) {
    // Item objects share the pair shape so DEREF of a ref-set element can
    // flow into the same subscripts/predicates as a pair-set element. A
    // small object pool guarantees shared OIDs both within one set (an OID
    // occurring with cardinality > 1) and across the two ref sets.
    EXA_RETURN_NOT_OK(db->catalog().DefineType("Item", pair));
    std::vector<Oid> pool;
    int objects = static_cast<int>(rng->Int(2, 4));
    for (int i = 0; i < objects; ++i) {
      ValuePtr state = Value::Tuple(
          {"k", "v"}, {Value::Int(rng->Int(0, 3)), Value::Int(rng->Int(0, 7))},
          "Item");
      EXA_ASSIGN_OR_RETURN(Oid oid, db->store().Create("Item", state));
      pool.push_back(oid);
    }
    for (int s = 0; s < 2; ++s) {
      std::vector<SetEntry> entries;
      int n = static_cast<int>(rng->Int(0, opts.max_set_size));
      for (int i = 0; i < n; ++i) {
        entries.push_back({Value::RefTo(rng->Pick(pool)), rng->Int(1, 2)});
      }
      std::string name = StrCat("Items", s);
      EXA_RETURN_NOT_OK(db->CreateNamed(name, Schema::Set(Schema::Ref("Item")),
                                        Value::SetOfCounted(std::move(entries))));
      out->ref_sets.push_back(std::move(name));
    }
  }
  return Status::OK();
}

namespace {

/// Random scalar int expression over an int-bound INPUT.
ExprPtr RandomIntSub(Rng* rng, int depth) {
  if (depth <= 0 || rng->Chance(2, 5)) {
    return rng->Chance(3, 4) ? Input() : IntLit(rng->Int(0, 7));
  }
  static const std::vector<std::string> kOps = {"+", "-", "*", "%"};
  std::string op = rng->Pick(kOps);
  ExprPtr rhs = op == "%" ? IntLit(rng->Int(1, 4))
                          : RandomIntSub(rng, depth - 1);
  return Arith(op, RandomIntSub(rng, depth - 1), std::move(rhs));
}

PredicatePtr RandomAtomOver(Rng* rng, const ExprPtr& lhs) {
  static const std::vector<CmpOp> kCmps = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                           CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  return Predicate::Atom(lhs, rng->Pick(kCmps), IntLit(rng->Int(0, 7)));
}

/// Random predicate over an int-bound INPUT.
PredicatePtr RandomIntPred(Rng* rng, int depth) {
  if (depth <= 0 || rng->Chance(1, 2)) {
    return RandomAtomOver(rng, rng->Chance(1, 4) ? RandomIntSub(rng, 1)
                                                 : Input());
  }
  switch (rng->Int(0, 2)) {
    case 0:
      return Predicate::And(RandomIntPred(rng, depth - 1),
                            RandomIntPred(rng, depth - 1));
    case 1:
      return Predicate::Or(RandomIntPred(rng, depth - 1),
                           RandomIntPred(rng, depth - 1));
    default:
      return Predicate::Not(RandomIntPred(rng, depth - 1));
  }
}

/// Random predicate over a (k, v)-tuple-bound INPUT.
PredicatePtr RandomPairPred(Rng* rng, int depth) {
  ExprPtr field = TupExtract(rng->Chance(1, 2) ? "k" : "v", Input());
  PredicatePtr atom = RandomAtomOver(rng, field);
  if (depth <= 0 || rng->Chance(1, 2)) return atom;
  PredicatePtr rest = RandomPairPred(rng, depth - 1);
  switch (rng->Int(0, 2)) {
    case 0: return Predicate::And(atom, rest);
    case 1: return Predicate::Or(atom, rest);
    default: return Predicate::Not(rest);
  }
}

struct PlanGen {
  Rng* rng;
  const GenOptions& opts;
  const GenDb& gen;

  ExprPtr SetIntLeaf() {
    if (!gen.int_sets.empty() && rng->Chance(1, 2)) {
      return Var(rng->Pick(gen.int_sets));
    }
    return Const(RandomIntSet(rng, opts));
  }

  ExprPtr SetPairLeaf() {
    if (!gen.pair_sets.empty() && rng->Chance(1, 2)) {
      return Var(rng->Pick(gen.pair_sets));
    }
    return Const(RandomPairSet(rng, opts));
  }

  ExprPtr SetInt(int depth) {
    if (depth <= 0) return SetIntLeaf();
    switch (rng->Int(0, 9)) {
      case 0:
        return SetApply(RandomIntSub(rng, 2), SetInt(depth - 1));
      case 1:
        return Select(RandomIntPred(rng, 2), SetInt(depth - 1));
      case 2:
        return DupElim(SetInt(depth - 1));
      case 3:
        return AddUnion(SetInt(depth - 1), SetIntLeaf());
      case 4:
        return Diff(SetInt(depth - 1), SetIntLeaf());
      case 5:
        return rng->Chance(1, 2) ? Union(SetInt(depth - 1), SetIntLeaf())
                                 : Intersect(SetInt(depth - 1), SetIntLeaf());
      case 6:
        return SetCollapse(SetSetInt(depth - 1));
      case 7:
        // Project a pair set down to one int field.
        return SetApply(TupExtract(rng->Chance(1, 2) ? "k" : "v", Input()),
                        SetPair(depth - 1));
      case 8:
        // Per-group aggregation: {{int}} -> {int}.
        return SetApply(Agg(rng->Chance(1, 2) ? "count" : "sum", Input()),
                        SetSetInt(depth - 1));
      default:
        // Deref a ref set and extract a field (rule 26/28 territory).
        if (!gen.ref_sets.empty()) {
          return SetApply(TupExtract("v", Deref(Input())),
                          Var(rng->Pick(gen.ref_sets)));
        }
        return SetIntLeaf();
    }
  }

  ExprPtr SetPair(int depth) {
    if (depth <= 0) return SetPairLeaf();
    switch (rng->Int(0, 4)) {
      case 0:
        return Select(RandomPairPred(rng, 2), SetPair(depth - 1));
      case 1:
        return DupElim(SetPair(depth - 1));
      case 2:
        return AddUnion(SetPair(depth - 1), SetPairLeaf());
      case 3:
        if (!gen.ref_sets.empty()) {
          // Materialize a ref set; DEREF(REF(x)) chains show up here too.
          ExprPtr sub = rng->Chance(1, 3)
                            ? Deref(RefOp(Deref(Input()), "Item"))
                            : Deref(Input());
          return SetApply(std::move(sub), Var(rng->Pick(gen.ref_sets)));
        }
        return SetPairLeaf();
      default:
        // Rebuild each pair through projection/concat (rule 13/23 shapes).
        return SetApply(Project({"k", "v"}, Input()), SetPair(depth - 1));
    }
  }

  ExprPtr SetSetInt(int depth) {
    switch (rng->Int(0, 3)) {
      case 0:
        return Group(RandomIntSub(rng, 1), SetInt(depth - 1));
      case 1:
        if (!gen.nested_sets.empty() && rng->Chance(1, 2)) {
          return Var(rng->Pick(gen.nested_sets));
        }
        return Const(RandomNestedSet(rng, opts));
      case 2:
        return SetApply(SetMake(Input()), SetInt(depth - 1));
      default:
        return SetApply(DupElim(Input()), SetSetIntLeaf());
    }
  }

  ExprPtr SetSetIntLeaf() {
    if (!gen.nested_sets.empty() && rng->Chance(1, 2)) {
      return Var(rng->Pick(gen.nested_sets));
    }
    return Const(RandomNestedSet(rng, opts));
  }

  ExprPtr ArrInt(int depth) {
    if (depth <= 0) {
      if (!gen.int_arrays.empty() && rng->Chance(1, 2)) {
        return Var(rng->Pick(gen.int_arrays));
      }
      return Const(RandomIntArray(rng, opts));
    }
    switch (rng->Int(0, 4)) {
      case 0:
        return ArrApply(RandomIntSub(rng, 2), ArrInt(depth - 1));
      case 1:
        return ArrSelect(RandomIntPred(rng, 1), ArrInt(depth - 1));
      case 2: {
        int64_t lo = rng->Int(1, 4);
        return SubArr(lo, lo + rng->Int(0, 3), ArrInt(depth - 1),
                      /*lo_last=*/false, /*hi_last=*/rng->Chance(1, 6));
      }
      case 3:
        return ArrCat(ArrInt(depth - 1), ArrInt(0));
      default:
        return ArrDupElim(rng->Chance(1, 2)
                              ? ArrInt(depth - 1)
                              : ArrDiff(ArrInt(depth - 1), ArrInt(0)));
    }
  }
};

}  // namespace

ExprPtr RandomPlan(Rng* rng, const GenOptions& opts, const GenDb& gen) {
  PlanGen g{rng, opts, gen};
  int depth = static_cast<int>(rng->Int(1, opts.max_plan_depth));
  switch (rng->Int(0, 5)) {
    case 0: return g.SetInt(depth);
    case 1: return g.SetPair(depth);
    case 2: return g.SetSetInt(depth);
    case 3: return g.ArrInt(depth);
    case 4: return RandomJoinPlan(rng, opts, gen);
    default:
      // Scalar results, re-wrapped so every plan stays collection-valued.
      return SetMake(Agg(rng->Chance(1, 2) ? "count" : "max",
                         g.SetInt(depth - 1)));
  }
}

ExprPtr RandomJoinPlan(Rng* rng, const GenOptions& opts, const GenDb& gen) {
  PlanGen g{rng, opts, gen};
  ExprPtr a = g.SetPair(static_cast<int>(rng->Int(0, 1)));
  ExprPtr b = g.SetPair(static_cast<int>(rng->Int(0, 1)));
  PredicatePtr theta =
      Eq(TupExtract("k", TupExtract("_1", Input())),
         TupExtract("k", TupExtract("_2", Input())));
  if (rng->Chance(1, 3)) {
    // Composite key.
    theta = Predicate::And(
        theta, Eq(TupExtract("v", TupExtract("_1", Input())),
                  TupExtract("v", TupExtract("_2", Input()))));
  }
  if (rng->Chance(1, 3)) {
    // Residual non-equality atom, re-checked after the key match.
    theta = Predicate::And(
        theta, RandomAtomOver(rng, TupExtract("v", TupExtract(
                                       rng->Chance(1, 2) ? "_1" : "_2",
                                       Input()))));
  }
  ExprPtr join = SetApply(Comp(std::move(theta), Input()),
                          Cross(std::move(a), std::move(b)));
  switch (rng->Int(0, 2)) {
    case 0:
      return join;
    case 1:
      // Project one side out of the matched pairs.
      return SetApply(TupExtract(rng->Chance(1, 2) ? "_1" : "_2", Input()),
                      std::move(join));
    default:
      return DupElim(SetApply(
          TupExtract("k", TupExtract("_1", Input())), std::move(join)));
  }
}

ExprPtr RandomTranslatedJoinPlan(Rng* rng, const GenOptions& opts,
                                 const GenDb& gen) {
  PlanGen g{rng, opts, gen};
  // One range variable per side, over ints or (k, v) pairs; `key` reads
  // the join key of a variable from the environment tuple.
  const bool x_pairs = rng->Chance(1, 2);
  const bool y_pairs = rng->Chance(1, 2);
  ExprPtr a = x_pairs ? g.SetPairLeaf() : g.SetIntLeaf();
  ExprPtr b = y_pairs ? g.SetPairLeaf() : g.SetIntLeaf();
  if (rng->Chance(1, 3)) {
    // An unk environment: COMP over it yields unk whatever θ's other
    // conjuncts say, which a join testing θ per pair would get wrong.
    a = AddUnion(std::move(a), Const(Value::SetOf({Value::Unk()})));
  }
  auto var = [](const char* v) { return TupExtract(v, Input()); };
  auto key = [&](const char* v, bool pairs, const char* field) {
    return pairs ? TupExtract(field, var(v)) : var(v);
  };

  // The first variable's environments, as translated (TUP<x> over A) or
  // already fused into g by rule 15 — optionally filtered, so g yields dne.
  ExprPtr envs = a;
  ExprPtr first = TupMakeNamed("x", Input());
  switch (rng->Int(0, 2)) {
    case 0:
      envs = SetApply(std::move(first), std::move(a));
      first = Input();
      break;
    case 1:
      break;
    default:
      first = Comp(RandomAtomOver(rng, key("x", x_pairs, "v")),
                   std::move(first));
      break;
  }
  ExprPtr extend = SetApply(
      TupCat(TupExtract("_1", Input()),
             TupMakeNamed("y", TupExtract("_2", Input()))),
      Cross(SetMake(std::move(first)), std::move(b)));
  envs = SetCollapse(SetApply(std::move(extend), std::move(envs)));

  PredicatePtr theta = Eq(key("x", x_pairs, "k"), key("y", y_pairs, "k"));
  if (x_pairs && y_pairs && rng->Chance(1, 3)) {
    theta = Predicate::And(theta, Eq(key("x", true, "v"), key("y", true, "v")));
  }
  if (rng->Chance(1, 2)) {
    const bool on_x = rng->Chance(1, 2);
    theta = Predicate::And(
        theta, RandomAtomOver(rng, on_x ? key("x", x_pairs, "v")
                                        : key("y", y_pairs, "v")));
  }
  ExprPtr join = SetApply(Comp(std::move(theta), Input()), std::move(envs));
  switch (rng->Int(0, 2)) {
    case 0:
      return join;
    case 1:
      // A two-column target list.
      return SetApply(TupCat(TupMakeNamed("a", key("x", x_pairs, "v")),
                             TupMakeNamed("b", key("y", y_pairs, "k"))),
                      std::move(join));
    default:
      return DupElim(SetApply(var("y"), std::move(join)));
  }
}

Result<ExprPtr> RandomRangeProbePlan(Rng* rng, const GenOptions& opts,
                                     Database* db) {
  const ValuePtr nan = Value::Float(std::nan(""));
  auto key = [&]() -> ValuePtr {
    switch (rng->Int(0, 9)) {
      case 0: return Value::Unk();
      case 1: return Value::Dne();
      case 2: return nan;
      case 3: return Value::Float(static_cast<double>(rng->Int(0, 10)) / 2);
      default: return Value::Int(rng->Int(0, 5));
    }
  };
  std::vector<SetEntry> entries;
  int n = static_cast<int>(rng->Int(0, opts.max_set_size + 2));
  auto elem = [](ValuePtr k, ValuePtr v) {
    return Value::Tuple({"k", "v"}, {std::move(k), std::move(v)});
  };
  for (int i = 0; i < n; ++i) {
    ValuePtr k = key();
    entries.push_back({elem(k, RandomIntScalar(rng, opts)), rng->Int(1, 3)});
  }
  if (rng->Chance(1, 12)) {
    entries.push_back({elem(Value::Str("s"), Value::Int(0)), 1});
  }
  SchemaPtr pair = Schema::Tup({{"k", FloatSchema()}, {"v", IntSchema()}});
  EXA_RETURN_NOT_OK(db->CreateNamed("Ranged", Schema::Set(pair),
                                    Value::SetOfCounted(std::move(entries))));
  EXA_RETURN_NOT_OK(
      db->CreateIndex({"ranged_k", "Ranged", {"k"}, IndexKind::kOrdered}));

  auto bound = [&]() -> ValuePtr {
    switch (rng->Int(0, 9)) {
      case 0: return Value::Unk();
      case 1: return Value::Dne();
      case 2: return nan;
      case 3: return Value::Str("m");
      case 4: return Value::Float(static_cast<double>(rng->Int(-1, 11)) / 2);
      default: return Value::Int(rng->Int(-1, 6));
    }
  };
  ValuePtr lo = bound();
  ValuePtr hi = rng->Chance(1, 4) ? lo : bound();
  // Key-on-the-left op, and its mirror for the probe-on-the-left form.
  auto atom = [&](CmpOp op, CmpOp mirrored, const ValuePtr& b) {
    return rng->Chance(1, 2)
               ? Predicate::Atom(TupExtract("k", Input()), op, Const(b))
               : Predicate::Atom(Const(b), mirrored, TupExtract("k", Input()));
  };
  PredicatePtr lower = rng->Chance(1, 2) ? atom(CmpOp::kGe, CmpOp::kLe, lo)
                                         : atom(CmpOp::kGt, CmpOp::kLt, lo);
  PredicatePtr upper = rng->Chance(1, 2) ? atom(CmpOp::kLe, CmpOp::kGe, hi)
                                         : atom(CmpOp::kLt, CmpOp::kGt, hi);
  PredicatePtr theta = rng->Chance(1, 2) ? Predicate::And(lower, upper)
                                         : Predicate::And(upper, lower);
  if (rng->Chance(1, 3)) {
    PredicatePtr extra = RandomAtomOver(rng, TupExtract("v", Input()));
    theta = rng->Chance(1, 2) ? Predicate::And(extra, theta)
                              : Predicate::And(theta, extra);
  }
  if (rng->Chance(1, 3)) {
    // The target list fused over the where clause (rule 15).
    return SetApply(TupExtract("v", Comp(std::move(theta), Input())),
                    Var("Ranged"));
  }
  return Select(std::move(theta), Var("Ranged"));
}

std::string MutateSource(Rng* rng, const std::string& source) {
  static const std::string kAlphabet =
      "abcxyz_0189 \t\n(){}[].,:;\"=<>!+-*/%$\\";
  std::string s = source;
  int edits = static_cast<int>(rng->Int(1, 3));
  for (int i = 0; i < edits && !s.empty(); ++i) {
    size_t pos = static_cast<size_t>(
        rng->Int(0, static_cast<int64_t>(s.size()) - 1));
    switch (rng->Int(0, 4)) {
      case 0:  // truncate
        s.resize(pos);
        break;
      case 1:  // delete one char
        s.erase(pos, 1);
        break;
      case 2:  // insert one char
        s.insert(pos, 1,
                 kAlphabet[static_cast<size_t>(rng->Int(
                     0, static_cast<int64_t>(kAlphabet.size()) - 1))]);
        break;
      case 3: {  // duplicate a short span (breeds nesting and repetition)
        size_t len = static_cast<size_t>(rng->Int(1, 8));
        len = std::min(len, s.size() - pos);
        std::string span = s.substr(pos, len);
        s.insert(pos, span);
        break;
      }
      default:  // replace one char
        s[pos] = kAlphabet[static_cast<size_t>(rng->Int(
            0, static_cast<int64_t>(kAlphabet.size()) - 1))];
        break;
    }
  }
  return s;
}

}  // namespace check
}  // namespace excess
