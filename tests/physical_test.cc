// The physical execution layer: hash-join lowering and answer equality,
// hash-accelerated multiset kernels against naive references, and parallel
// SET_APPLY / ARR_APPLY against the serial path — all on randomized
// university-flavored data with duplicates, nulls and nested-set keys.

#include "core/physical.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "core/analysis.h"
#include "core/builder.h"
#include "core/eval.h"
#include "core/infer.h"
#include "core/kernels.h"
#include "objects/database.h"

namespace excess {
namespace {

using namespace alg;  // NOLINT(build/namespaces) — test readability

ValuePtr I(int64_t v) { return Value::Int(v); }
ValuePtr S(std::vector<ValuePtr> v) { return Value::SetOf(v); }

/// An element tuple (k: join key, v: payload).
ValuePtr Elem(ValuePtr k, ValuePtr v) {
  return Value::Tuple({"k", "v"}, {std::move(k), std::move(v)});
}

/// Random join key: small ints (to force collisions), unk, dne, or a
/// nested set of ints (sets are legal, hashable join keys).
ValuePtr RandomKey(std::mt19937* rng) {
  switch ((*rng)() % 10) {
    case 0:
      return Value::Unk();
    case 1:
      return Value::Dne();
    case 2:
      return S({I(static_cast<int64_t>((*rng)() % 3)),
                I(static_cast<int64_t>((*rng)() % 3))});
    default:
      return I(static_cast<int64_t>((*rng)() % 12));
  }
}

ValuePtr RandomPayload(std::mt19937* rng) {
  if ((*rng)() % 8 == 0) return Value::Unk();
  return I(static_cast<int64_t>((*rng)() % 50));
}

/// Random multiset of (k, v) tuples with duplicated occurrences.
ValuePtr RandomSide(std::mt19937* rng, int distinct) {
  std::vector<SetEntry> entries;
  for (int i = 0; i < distinct; ++i) {
    entries.push_back({Elem(RandomKey(rng), RandomPayload(rng)),
                       static_cast<int64_t>(1 + (*rng)() % 3)});
  }
  return Value::SetOfCounted(std::move(entries));
}

PredicatePtr KeyEq() {
  return Eq(TupExtract("k", TupExtract("_1", Input())),
            TupExtract("k", TupExtract("_2", Input())));
}

/// θ with a residual non-equality conjunct (three-valued on unk payloads).
PredicatePtr KeyEqAndPayloadGt() {
  return Predicate::And(KeyEq(),
                        Gt(TupExtract("v", TupExtract("_1", Input())),
                           TupExtract("v", TupExtract("_2", Input()))));
}

ExprPtr SelectCross(PredicatePtr theta, ValuePtr a, ValuePtr b) {
  return SetApply(Comp(std::move(theta), Input()),
                  Cross(Const(std::move(a)), Const(std::move(b))));
}

class PhysicalTest : public ::testing::Test {
 protected:
  ValuePtr Run(const ExprPtr& e) {
    Evaluator ev(&db_);
    auto r = ev.Eval(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }
  Database db_;
};

// --- lowering ---------------------------------------------------------------

TEST_F(PhysicalTest, LowersSelectOverCross) {
  ExprPtr logical = SelectCross(KeyEq(), S({}), S({}));
  ExprPtr physical = LowerPhysical(logical);
  ASSERT_EQ(physical->kind(), OpKind::kHashJoin);
  EXPECT_EQ(physical->num_children(), 4u);
  // Keys were stripped to per-element expressions: TUP_EXTRACT_k(INPUT).
  EXPECT_EQ(physical->child(2)->kind(), OpKind::kTupExtract);
  EXPECT_EQ(physical->child(2)->name(), "k");
  EXPECT_EQ(physical->child(2)->child(0)->kind(), OpKind::kInput);
  // θ rides along whole.
  EXPECT_TRUE(physical->pred()->Equals(*KeyEq()));
}

TEST_F(PhysicalTest, LowersTheRelJoinShape) {
  ExprPtr join = RelJoin(KeyEq(), Const(S({})), Const(S({})));
  ExprPtr physical = LowerPhysical(join);
  // The outer flatten SET_APPLY stays; its input became the hash join.
  ASSERT_EQ(physical->kind(), OpKind::kSetApply);
  EXPECT_EQ(physical->child(0)->kind(), OpKind::kHashJoin);
}

TEST_F(PhysicalTest, DoesNotLowerNonEquiOrOneSidedPredicates) {
  // Pure inequality: no equality atom to key on.
  ExprPtr lt = SelectCross(Lt(TupExtract("k", TupExtract("_1", Input())),
                              TupExtract("k", TupExtract("_2", Input()))),
                           S({}), S({}));
  EXPECT_EQ(LowerPhysical(lt)->kind(), OpKind::kSetApply);
  // Equality against a constant is a selection, not a join.
  ExprPtr sel = SelectCross(
      Eq(TupExtract("k", TupExtract("_1", Input())), IntLit(3)), S({}), S({}));
  EXPECT_EQ(LowerPhysical(sel)->kind(), OpKind::kSetApply);
  // Equality whose one side mentions both halves cannot be split.
  ExprPtr both = SelectCross(
      Eq(Arith("+", TupExtract("k", TupExtract("_1", Input())),
               TupExtract("k", TupExtract("_2", Input()))),
         TupExtract("v", TupExtract("_2", Input()))),
      S({}), S({}));
  EXPECT_EQ(LowerPhysical(both)->kind(), OpKind::kSetApply);
}

TEST_F(PhysicalTest, CompositeKeyFromTwoEqualityAtoms) {
  PredicatePtr theta =
      Predicate::And(KeyEq(), Eq(TupExtract("v", TupExtract("_1", Input())),
                                 TupExtract("v", TupExtract("_2", Input()))));
  ExprPtr physical = LowerPhysical(SelectCross(theta, S({}), S({})));
  ASSERT_EQ(physical->kind(), OpKind::kHashJoin);
  // Composite keys are positional tuples: TUP_CAT(TUP(k), TUP(v)).
  EXPECT_EQ(physical->child(2)->kind(), OpKind::kTupCat);
  EXPECT_EQ(physical->child(3)->kind(), OpKind::kTupCat);
}

TEST_F(PhysicalTest, HashJoinInfersTheCrossSchema) {
  ExprPtr physical = LowerPhysical(
      SelectCross(KeyEq(), S({Elem(I(1), I(1))}), S({Elem(I(1), I(2))})));
  TypeInference infer(&db_);
  auto s = infer.Infer(physical);
  ASSERT_TRUE(s.ok()) << s.status().ToString();
  EXPECT_TRUE((*s)->is_set());
}

// --- answer equality --------------------------------------------------------

TEST_F(PhysicalTest, HashJoinEqualsLogicalOnRandomizedData) {
  for (int trial = 0; trial < 30; ++trial) {
    std::mt19937 rng(1234 + trial);
    // Mixed sizes: small sides exercise the nested-loop gate, larger ones
    // the hash path with its unk/dne-key fallbacks.
    int na = 2 + static_cast<int>(rng() % 60);
    int nb = 2 + static_cast<int>(rng() % 60);
    ValuePtr a = RandomSide(&rng, na);
    ValuePtr b = RandomSide(&rng, nb);
    for (const PredicatePtr& theta : {KeyEq(), KeyEqAndPayloadGt()}) {
      ExprPtr logical = SelectCross(theta, a, b);
      ExprPtr physical = LowerPhysical(logical);
      ASSERT_EQ(physical->kind(), OpKind::kHashJoin);
      ValuePtr vl = Run(logical);
      ValuePtr vp = Run(physical);
      ASSERT_TRUE(vl != nullptr && vp != nullptr);
      EXPECT_TRUE(vl->Equals(*vp))
          << "trial " << trial << "\nlogical:  " << vl->ToString()
          << "\nphysical: " << vp->ToString();
    }
  }
}

TEST_F(PhysicalTest, DneKeyMeetsUnkKeyAcrossTheHashGate) {
  // atom(dne, unk) is unk (unk dominates in [Gott88] atom semantics), so a
  // dne-key element must still meet unk-key elements of the other side.
  // Both sides get >16 distinct keyed elements to force the hash path.
  std::vector<SetEntry> ea, eb;
  for (int i = 0; i < 20; ++i) {
    ea.push_back({Elem(I(i), I(i)), 1});
    eb.push_back({Elem(I(100 + i), I(i)), 1});
  }
  ea.push_back({Elem(Value::Dne(), I(-1)), 2});
  eb.push_back({Elem(Value::Unk(), I(-2)), 3});
  ValuePtr a = Value::SetOfCounted(std::move(ea));
  ValuePtr b = Value::SetOfCounted(std::move(eb));
  ExprPtr logical = SelectCross(KeyEq(), a, b);
  ExprPtr physical = LowerPhysical(logical);
  ASSERT_EQ(physical->kind(), OpKind::kHashJoin);
  ValuePtr vl = Run(logical);
  ValuePtr vp = Run(physical);
  EXPECT_TRUE(vl->Equals(*vp));
  // The unk-key B element meets all 20 keyed A elements (20 * 1 * 3 unk
  // pairs); the dne-key A element adds 2 * 3 more through the D × U bucket.
  EXPECT_EQ(vp->CountOf(Value::Unk()), 20 * 3 + 2 * 3);
}

TEST_F(PhysicalTest, NestedSetKeysJoinByDeepEquality) {
  ValuePtr k1 = S({I(1), I(2), I(2)});
  ValuePtr k2 = S({I(2), I(1), I(2)});  // equal as multisets
  ValuePtr k3 = S({I(1), I(2)});
  std::vector<SetEntry> ea, eb;
  for (int i = 0; i < 20; ++i) {
    ea.push_back({Elem(I(i), I(0)), 1});
    eb.push_back({Elem(I(50 + i), I(0)), 1});
  }
  ea.push_back({Elem(k1, I(7)), 1});
  eb.push_back({Elem(k2, I(8)), 2});
  eb.push_back({Elem(k3, I(9)), 1});
  ExprPtr physical = LowerPhysical(
      SelectCross(KeyEq(), Value::SetOfCounted(std::move(ea)),
                  Value::SetOfCounted(std::move(eb))));
  ASSERT_EQ(physical->kind(), OpKind::kHashJoin);
  ValuePtr v = Run(physical);
  // Only k1 = k2 matches (multiset equality ignores order, counts matter).
  EXPECT_EQ(v->TotalCount(), 2);
  EXPECT_EQ(v->CountOf(Value::TupleOf({Elem(k1, I(7)), Elem(k2, I(8))})), 2);
}

// --- joins translated from EXCESS --------------------------------------------

/// A two-variable join as it leaves the rewriter: x over `a`, y over `b`,
/// the environment extension TUP_CAT(_1, TUP<y>(_2)), θ = x.k = y.k ∧
/// y.v < 30, and the target list (x.v, y.v) fused over the COMP.
ExprPtr TranslatedJoin(ValuePtr a, ValuePtr b) {
  ExprPtr env = TupCat(TupExtract("_1", Input()),
                       TupMakeNamed("y", TupExtract("_2", Input())));
  PredicatePtr theta =
      Predicate::And(Eq(Path({"x", "k"}, Input()), Path({"y", "k"}, Input())),
                     Lt(Path({"y", "v"}, Input()), IntLit(30)));
  ExprPtr chi = TupCat(TupMakeNamed("a", Path({"x", "v"}, Input())),
                       TupMakeNamed("b", Path({"y", "v"}, Input())));
  return SetApply(
      analysis::SubstituteInput(chi, Comp(std::move(theta), std::move(env))),
      Cross(SetApply(TupMakeNamed("x", Input()), Const(std::move(a))),
            Const(std::move(b))));
}

TEST_F(PhysicalTest, LowersTranslatedJoinThroughTheEnvironmentOperand) {
  std::mt19937 rng(11);
  ExprPtr logical = TranslatedJoin(RandomSide(&rng, 12), RandomSide(&rng, 12));
  ExprPtr physical = LowerPhysical(logical);
  ASSERT_EQ(physical->kind(), OpKind::kSetApply);
  const ExprPtr& join = physical->child(0);
  ASSERT_EQ(join->kind(), OpKind::kHashJoin);
  // θ keeps reading the environment tuple through the operand binder.
  ASSERT_NE(join->sub(), nullptr);
  EXPECT_NE(join->pred()->ToString().find("TUP_EXTRACT<x>"), std::string::npos);
  EXPECT_TRUE(Run(logical)->Equals(*Run(physical)));
  // The keys are found on the plan's structure alone: the index-aware
  // overload lowers the join the same way.
  EXPECT_TRUE(LowerPhysical(logical, &db_, CostParams())->Equals(*physical));
}

TEST_F(PhysicalTest, TranslatedJoinNeedsTheFieldsToShowInThePlan) {
  // The environment splices in the x side's element, a literal (k, y)
  // tuple, so nothing in the plan says which fields it carries. TUP_CAT
  // keeps both y fields and reads the first, the x side's: resolving y to
  // the TUP<y> component would join on the wrong key, so the lowering
  // keeps the product.
  ExprPtr env = TupCat(
      TupMakeNamed("x", TupExtract("_1", Input())),
      TupCat(TupExtract("_1", Input()),
             TupMakeNamed("y", TupExtract("_2", Input()))));
  ValuePtr a = S({Value::Tuple({"k", "y"}, {I(2), I(2)}),
                  Value::Tuple({"k", "y"}, {I(2), I(1)})});
  ExprPtr logical = SetApply(
      Comp(Eq(Path({"x", "k"}, Input()), Path({"y"}, Input())), env),
      Cross(Const(a), Const(S({I(1), I(2), I(3)}))));
  ExprPtr physical = LowerPhysical(logical);
  EXPECT_TRUE(physical->Equals(*logical));
  EXPECT_EQ(Run(logical)->TotalCount(), 3);
}

TEST_F(PhysicalTest, TranslatedJoinKeepsUnkEnvironments) {
  // An unk element makes its environment tuple unk, and COMP(unk) is unk
  // whatever θ's other conjuncts say: here y.v < 30 is false. A join that
  // tested θ on the pair instead of the environment would drop the row.
  ExprPtr logical = TranslatedJoin(S({Value::Unk(), Elem(I(1), I(5))}),
                                   S({Elem(I(1), I(50))}));
  ExprPtr physical = LowerPhysical(logical);
  ASSERT_EQ(physical->child(0)->kind(), OpKind::kHashJoin);
  ValuePtr want = Run(logical);
  EXPECT_EQ(want->ToString(), "{unk}");
  EXPECT_TRUE(want->Equals(*Run(physical)));
}

TEST_F(PhysicalTest, TranslatedJoinEqualsLogicalOnRandomizedData) {
  // unk/dne/nested-set keys, unk payloads, duplicates, and whole unk
  // elements on either side.
  for (int seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(static_cast<unsigned>(seed));
    ValuePtr a = RandomSide(&rng, 1 + seed % 9);
    ValuePtr b = RandomSide(&rng, 1 + seed % 17);
    if (seed % 3 == 0) a = *kernels::AddUnion(a, S({Value::Unk()}), nullptr);
    if (seed % 4 == 0) b = *kernels::AddUnion(b, S({Value::Unk()}), nullptr);
    ExprPtr logical = TranslatedJoin(a, b);
    ExprPtr physical = LowerPhysical(logical);
    ASSERT_EQ(physical->child(0)->kind(), OpKind::kHashJoin);
    ValuePtr want = Run(logical);
    ValuePtr got = Run(physical);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(want->Equals(*got)) << "seed " << seed << "\nlogical:  "
                                    << want->ToString()
                                    << "\nphysical: " << got->ToString();
  }
}

TEST_F(PhysicalTest, EmptySidesShortCircuit) {
  ExprPtr physical =
      LowerPhysical(SelectCross(KeyEq(), S({}), S({Elem(I(1), I(1))})));
  EXPECT_EQ(Run(physical)->TotalCount(), 0);
}

// --- hash-accelerated kernels ----------------------------------------------

ValuePtr NaiveDiff(const ValuePtr& a, const ValuePtr& b) {
  std::vector<SetEntry> out;
  for (const auto& e : a->entries()) {
    int64_t remaining = e.count - b->CountOf(e.value);
    if (remaining > 0) out.push_back({e.value, remaining});
  }
  return Value::SetOfCounted(std::move(out));
}

ValuePtr NaiveMaxUnion(const ValuePtr& a, const ValuePtr& b) {
  std::vector<SetEntry> out;
  for (const auto& e : a->entries()) {
    out.push_back({e.value, std::max(e.count, b->CountOf(e.value))});
  }
  for (const auto& e : b->entries()) {
    if (a->CountOf(e.value) == 0) out.push_back(e);
  }
  return Value::SetOfCounted(std::move(out));
}

ValuePtr NaiveMinIntersect(const ValuePtr& a, const ValuePtr& b) {
  std::vector<SetEntry> out;
  for (const auto& e : a->entries()) {
    int64_t c = std::min(e.count, b->CountOf(e.value));
    if (c > 0) out.push_back({e.value, c});
  }
  return Value::SetOfCounted(std::move(out));
}

TEST(HashKernelsTest, MatchNaiveReferencesOnRandomizedData) {
  for (int trial = 0; trial < 40; ++trial) {
    std::mt19937 rng(99 + trial);
    // Sizes straddle the index gate (kIndexMin = 8) on both sides.
    ValuePtr a = RandomSide(&rng, 1 + static_cast<int>(rng() % 40));
    ValuePtr b = RandomSide(&rng, 1 + static_cast<int>(rng() % 40));
    auto diff = kernels::Diff(a, b);
    auto uni = kernels::MaxUnion(a, b);
    auto inter = kernels::MinIntersect(a, b);
    ASSERT_TRUE(diff.ok() && uni.ok() && inter.ok());
    EXPECT_TRUE((*diff)->Equals(*NaiveDiff(a, b))) << "trial " << trial;
    EXPECT_TRUE((*uni)->Equals(*NaiveMaxUnion(a, b))) << "trial " << trial;
    EXPECT_TRUE((*inter)->Equals(*NaiveMinIntersect(a, b)))
        << "trial " << trial;
    // The lattice identities the Appendix derives the operators from.
    auto au = kernels::AddUnion(*inter, *diff);
    ASSERT_TRUE(au.ok());
    EXPECT_TRUE((*au)->Equals(*a));  // (A ∩ B) ⊎ (A - B) = A
  }
}

// --- parallel SET_APPLY / ARR_APPLY ----------------------------------------

class ParallelApplyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Must precede the first WorkerPool::Instance() in this process; each
    // ctest entry runs the binary fresh, so this reliably sizes the pool.
    setenv("EXCESS_THREADS", "4", /*overwrite=*/0);
  }
  Database db_;
};

TEST_F(ParallelApplyTest, SetApplyMatchesSerialOnLargeInput) {
  std::mt19937 rng(7);
  std::vector<SetEntry> entries;
  for (int i = 0; i < 5000; ++i) {
    entries.push_back({Elem(I(static_cast<int64_t>(rng() % 100)),
                            I(static_cast<int64_t>(rng() % 1000))),
                       static_cast<int64_t>(1 + rng() % 2)});
  }
  ValuePtr in = Value::SetOfCounted(std::move(entries));
  // A subscript with a nested selection (COMP produces unk/dne too).
  ExprPtr sub = Comp(Gt(TupExtract("v", Input()), IntLit(500)), Input());
  ExprPtr plan = SetApply(sub, Const(in));
  ASSERT_TRUE(analysis::IsParallelSafe(sub));

  Evaluator serial(&db_);
  serial.set_parallel_enabled(false);
  auto rs = serial.Eval(plan);
  ASSERT_TRUE(rs.ok());

  Evaluator par(&db_);
  par.set_parallel_threshold(128);
  auto rp = par.Eval(plan);
  ASSERT_TRUE(rp.ok());
  EXPECT_TRUE((*rs)->Equals(**rp));
  // Merged worker stats reproduce the serial operator counts exactly.
  EXPECT_EQ(par.stats().InvocationsOf(OpKind::kComp),
            serial.stats().InvocationsOf(OpKind::kComp));
  EXPECT_EQ(par.stats().predicate_atoms, serial.stats().predicate_atoms);
}

TEST_F(ParallelApplyTest, ArrApplyMatchesSerialAndPreservesOrder) {
  std::vector<ValuePtr> elems;
  for (int i = 0; i < 4000; ++i) elems.push_back(I(i));
  ExprPtr plan =
      ArrApply(Arith("*", Input(), IntLit(3)), Const(Value::ArrayOf(elems)));

  Evaluator serial(&db_);
  serial.set_parallel_enabled(false);
  auto rs = serial.Eval(plan);
  Evaluator par(&db_);
  par.set_parallel_threshold(128);
  auto rp = par.Eval(plan);
  ASSERT_TRUE(rs.ok() && rp.ok());
  EXPECT_TRUE((*rs)->Equals(**rp));
  EXPECT_EQ((*rp)->ArrayLength(), 4000);
  EXPECT_EQ((*rp)->elems()[1234]->as_int(), 3 * 1234);
}

TEST_F(ParallelApplyTest, RefSubscriptIsNotParallelSafe) {
  // REF interns into the shared store — the gate must refuse it, and the
  // (serialized) evaluation must still be correct.
  ExprPtr sub = RefOp(Input());
  EXPECT_FALSE(analysis::IsParallelSafe(sub));
  EXPECT_FALSE(analysis::IsParallelSafe(MethodCall("m", Input())));
  EXPECT_TRUE(analysis::IsParallelSafe(Deref(Input())));

  std::vector<ValuePtr> occ;
  for (int i = 0; i < 2000; ++i) occ.push_back(Elem(I(i % 7), I(i % 7)));
  ExprPtr plan = SetApply(sub, Const(S(occ)));
  Evaluator par(&db_);
  par.set_parallel_threshold(128);
  auto r = par.Eval(plan);
  ASSERT_TRUE(r.ok());
  // Interning dedupes: 7 distinct tuples -> 7 distinct refs.
  EXPECT_EQ((*r)->DistinctCount(), 7);
  EXPECT_EQ(db_.store().size(), 7u);
}

TEST_F(ParallelApplyTest, ErrorsSurfaceDeterministically) {
  std::vector<ValuePtr> occ;
  for (int i = 0; i < 3000; ++i) occ.push_back(I(i));
  // Division by zero on every element.
  ExprPtr plan = SetApply(Arith("/", IntLit(1), Arith("-", Input(), Input())),
                          Const(S(occ)));
  Evaluator par(&db_);
  par.set_parallel_threshold(64);
  auto r = par.Eval(plan);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsEvalError());
}

TEST_F(ParallelApplyTest, TimingAccountsSelfTimePerOpKind) {
  std::vector<ValuePtr> occ;
  for (int i = 0; i < 1000; ++i) occ.push_back(I(i));
  ExprPtr plan = SetApply(Arith("+", Input(), IntLit(1)), Const(S(occ)));
  Evaluator ev(&db_);
  ev.set_timing_enabled(true);
  ev.set_parallel_enabled(false);
  ASSERT_TRUE(ev.Eval(plan).ok());
  EXPECT_GT(ev.stats().TotalNanos(), 0);
  EXPECT_GT(ev.stats().NanosOf(OpKind::kSetApply), 0);
  // Off by default: no clock reads, no numbers.
  Evaluator cold(&db_);
  ASSERT_TRUE(cold.Eval(plan).ok());
  EXPECT_EQ(cold.stats().TotalNanos(), 0);
}

}  // namespace
}  // namespace excess
