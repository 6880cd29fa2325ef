// Targeted tests for the transformation rules: each directed rule fires on
// its pattern, declines when side conditions fail, and preserves semantics
// on concrete data.

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/eval.h"
#include "core/rewriter.h"
#include "core/rules.h"
#include "objects/database.h"
#include "util/string_util.h"

namespace excess {
namespace {

using namespace alg;  // NOLINT(build/namespaces)

ValuePtr I(int64_t v) { return Value::Int(v); }
ValuePtr S(std::vector<ValuePtr> v) { return Value::SetOf(v); }

class RulesTest : public ::testing::Test {
 protected:
  /// Applies exactly the named rule (anywhere, one step) or returns null.
  ExprPtr ApplyOnce(const std::string& rule, const ExprPtr& e) {
    Rewriter rw(&db_, RuleSet::Only({rule}));
    auto neighbors = rw.EnumerateNeighbors(e);
    return neighbors.empty() ? nullptr : neighbors.front();
  }

  /// Evaluates and requires success.
  ValuePtr Eval(const ExprPtr& e) {
    Evaluator ev(&db_);
    auto r = ev.Eval(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << e->ToTreeString();
    return r.ok() ? *r : nullptr;
  }

  /// Asserts the rule fires and the rewritten tree evaluates identically.
  void ExpectEquivalentRewrite(const std::string& rule, const ExprPtr& e) {
    ExprPtr rewritten = ApplyOnce(rule, e);
    ASSERT_NE(rewritten, nullptr) << rule << " did not fire on\n"
                                  << e->ToTreeString();
    EXPECT_FALSE(rewritten->Equals(*e));
    ValuePtr before = Eval(e);
    ValuePtr after = Eval(rewritten);
    ASSERT_NE(before, nullptr);
    ASSERT_NE(after, nullptr);
    EXPECT_TRUE(before->Equals(*after))
        << rule << "\nbefore: " << before->ToString()
        << "\nafter:  " << after->ToString();
  }

  Database db_;
};

TEST_F(RulesTest, Rule1AddUnionAssociativity) {
  ExprPtr e = AddUnion(Const(S({I(1)})),
                       AddUnion(Const(S({I(1), I(2)})), Const(S({I(3)}))));
  ExpectEquivalentRewrite("addunion-assoc-left", e);
}

TEST_F(RulesTest, Rule2CrossDistributesOverAddUnion) {
  ExprPtr e = Cross(Const(S({I(1), I(1)})),
                    AddUnion(Const(S({I(2)})), Const(S({I(3)}))));
  ExpectEquivalentRewrite("cross-distributes-over-addunion", e);
  // And the factoring direction.
  ExprPtr f = AddUnion(Cross(Const(S({I(1)})), Const(S({I(2)}))),
                       Cross(Const(S({I(1)})), Const(S({I(3)}))));
  ExpectEquivalentRewrite("cross-factor-addunion", f);
}

TEST_F(RulesTest, Rule3RelCrossCommutes) {
  ValuePtr l = S({Value::Tuple({"a"}, {I(1)})});
  ValuePtr r = S({Value::Tuple({"b"}, {I(2)}), Value::Tuple({"b"}, {I(3)})});
  ExprPtr e = RelCross(Const(l), Const(r));
  // Record-style tuple equality makes the flipped product equal.
  ExpectEquivalentRewrite("relcross-commute", e);
}

TEST_F(RulesTest, Rule4DisjunctiveSelectionSplits) {
  ValuePtr data = S({I(1), I(2), I(3), I(4), I(4)});
  ExprPtr e = Select(Predicate::Or(Lt(Input(), IntLit(2)),
                                   Gt(Input(), IntLit(3))),
                     Const(data));
  ExpectEquivalentRewrite("split-disjunctive-selection", e);
}

TEST_F(RulesTest, Rule5EliminatesCrossUnderDe) {
  ValuePtr a = S({Value::Tuple({"x"}, {I(1)}), Value::Tuple({"x"}, {I(2)})});
  ValuePtr b = S({I(7), I(8), I(9)});  // non-empty, as the rule assumes
  ExprPtr e = DupElim(SetApply(TupExtract("x", TupExtract("_1", Input())),
                               Cross(Const(a), Const(b))));
  ExpectEquivalentRewrite("eliminate-cross-under-de", e);
  // Declines when E touches both sides.
  ExprPtr both = DupElim(SetApply(
      Arith("+", TupExtract("x", TupExtract("_1", Input())),
            TupExtract("_2", Input())),
      Cross(Const(a), Const(b))));
  EXPECT_EQ(ApplyOnce("eliminate-cross-under-de", both), nullptr);
}

TEST_F(RulesTest, Rule5SymmetricSide) {
  ValuePtr a = S({I(1), I(2)});
  ValuePtr b = S({Value::Tuple({"y"}, {I(5)}), Value::Tuple({"y"}, {I(5)})});
  ExprPtr e = DupElim(SetApply(TupExtract("y", TupExtract("_2", Input())),
                               Cross(Const(a), Const(b))));
  ExpectEquivalentRewrite("eliminate-cross-under-de", e);
}

TEST_F(RulesTest, Rule6DeOfGroupIsGroup) {
  ExprPtr e = DupElim(Group(Arith("%", Input(), IntLit(2)),
                            Const(S({I(1), I(2), I(3), I(3)}))));
  ExpectEquivalentRewrite("de-of-group-is-group", e);
}

TEST_F(RulesTest, Rule7DeDistributesOverCross) {
  ExprPtr e = DupElim(Cross(Const(S({I(1), I(1), I(2)})),
                            Const(S({I(5), I(5)}))));
  ExpectEquivalentRewrite("distribute-de-over-cross", e);
}

TEST_F(RulesTest, Rule8DeBeforeGroup) {
  ValuePtr data = S({I(1), I(1), I(2), I(3), I(3), I(3)});
  ExprPtr e = SetApply(DupElim(Input()),
                       Group(Arith("%", Input(), IntLit(2)), Const(data)));
  ExpectEquivalentRewrite("de-before-group", e);
  // The rewrite is the Figure 7 shape: GRP over DE.
  ExprPtr rewritten = ApplyOnce("de-before-group", e);
  EXPECT_EQ(rewritten->kind(), OpKind::kGroup);
  EXPECT_EQ(rewritten->child(0)->kind(), OpKind::kDupElim);
}

TEST_F(RulesTest, Rule9GroupOfOneSidedCross) {
  ASSERT_TRUE(db_.CreateNamed("B", Schema::Set(IntSchema()),
                              S({I(7), I(8)}))
                  .ok());
  ValuePtr a = S({Value::Tuple({"k"}, {I(1)}), Value::Tuple({"k"}, {I(1)}),
                  Value::Tuple({"k"}, {I(2)})});
  ExprPtr e = Group(TupExtract("k", TupExtract("_1", Input())),
                    Cross(Const(a), Var("B")));
  ExpectEquivalentRewrite("group-cross-one-sided", e);
  // Declines when the replicated side is an arbitrary expression.
  ExprPtr expensive = Group(TupExtract("k", TupExtract("_1", Input())),
                            Cross(Const(a), DupElim(Var("B"))));
  EXPECT_EQ(ApplyOnce("group-cross-one-sided", expensive), nullptr);
}

TEST_F(RulesTest, Rule10SelectionBeforeGroupModuloEmptyGroups) {
  // Data chosen so no group is entirely filtered away: then the
  // equivalence is exact.
  ValuePtr data = S({I(1), I(2), I(3), I(4)});
  ExprPtr e = SetApply(Select(Gt(Input(), IntLit(1)), Input()),
                       Group(Arith("%", Input(), IntLit(2)), Const(data)));
  ExpectEquivalentRewrite("selection-before-group", e);
}

TEST_F(RulesTest, Rule10EmptyGroupCaveat) {
  // When the selection empties a whole group, the two sides differ by that
  // empty group — the caveat documented in DESIGN.md.
  ValuePtr data = S({I(1), I(3), I(4)});
  ExprPtr lhs = SetApply(Select(Eq(Input(), IntLit(4)), Input()),
                         Group(Arith("%", Input(), IntLit(2)), Const(data)));
  ExprPtr rhs = ApplyOnce("selection-before-group", lhs);
  ASSERT_NE(rhs, nullptr);
  ValuePtr l = Eval(lhs);
  ValuePtr r = Eval(rhs);
  // LHS keeps the emptied odd group; RHS drops it.
  EXPECT_EQ(l->TotalCount(), 2);
  EXPECT_EQ(r->TotalCount(), 1);
  EXPECT_EQ(l->CountOf(Value::EmptySet()), 1);
}

TEST_F(RulesTest, Rule11CollapseDistributes) {
  ValuePtr a = S({S({I(1)}), S({I(2), I(2)})});
  ValuePtr b = S({S({I(3)})});
  ExprPtr e = SetCollapse(AddUnion(Const(a), Const(b)));
  ExpectEquivalentRewrite("collapse-distributes-over-addunion", e);
}

TEST_F(RulesTest, Rule12ApplyDistributesAndFactors) {
  ValuePtr a = S({I(1), I(2)});
  ValuePtr b = S({I(2), I(3)});
  ExprPtr dist = SetApply(Arith("*", Input(), IntLit(2)),
                          AddUnion(Const(a), Const(b)));
  ExpectEquivalentRewrite("apply-distributes-over-addunion", dist);
  ExprPtr fact = AddUnion(SetApply(Arith("*", Input(), IntLit(2)), Const(a)),
                          SetApply(Arith("*", Input(), IntLit(2)), Const(b)));
  ExpectEquivalentRewrite("apply-factor-addunion", fact);
}

TEST_F(RulesTest, Rule13ApplySplitsOverCross) {
  ValuePtr a = S({Value::Tuple({"x", "junk"}, {I(1), I(9)}),
                  Value::Tuple({"x", "junk"}, {I(2), I(9)})});
  ValuePtr b = S({Value::Tuple({"y", "junk2"}, {I(5), I(8)})});
  // π pushdown into both inputs of the product.
  ExprPtr e = SetApply(
      TupCat(Project({"x"}, TupExtract("_1", Input())),
             Project({"y"}, TupExtract("_2", Input()))),
      Cross(Const(a), Const(b)));
  ExpectEquivalentRewrite("apply-distributes-over-cross", e);
  // The trivial flatten form must NOT fire (would loop).
  ExprPtr flat = RelCross(Const(a), Const(b));
  EXPECT_EQ(ApplyOnce("apply-distributes-over-cross", flat), nullptr);
}

TEST_F(RulesTest, Rule14ApplyInsideCollapse) {
  ValuePtr a = S({S({I(1), I(2)}), S({I(3)})});
  ExprPtr push = SetApply(Arith("+", Input(), IntLit(10)),
                          SetCollapse(Const(a)));
  ExpectEquivalentRewrite("push-apply-inside-collapse", push);
  ExprPtr pull = SetCollapse(SetApply(
      SetApply(Arith("+", Input(), IntLit(10)), Input()), Const(a)));
  ExpectEquivalentRewrite("pull-apply-out-of-collapse", pull);
}

TEST_F(RulesTest, Rule15CombinesSetApplys) {
  ValuePtr a = S({I(1), I(2), I(3)});
  ExprPtr e = SetApply(Arith("*", Input(), IntLit(3)),
                       SetApply(Arith("+", Input(), IntLit(1)), Const(a)));
  ExpectEquivalentRewrite("combine-set-applys", e);
  ExprPtr rewritten = ApplyOnce("combine-set-applys", e);
  // One scan, composed subscript.
  EXPECT_EQ(rewritten->child(0)->kind(), OpKind::kConst);
}

TEST_F(RulesTest, Rule15ExactWithDneProducingInner) {
  // The inner subscript produces dne for some elements (COMP); the
  // composed pipeline must agree thanks to null propagation.
  ValuePtr a = S({I(1), I(2), I(3), I(4)});
  ExprPtr e = SetApply(
      Arith("*", Input(), IntLit(10)),
      SetApply(Comp(Gt(Input(), IntLit(2)), Input()), Const(a)));
  ExpectEquivalentRewrite("combine-set-applys", e);
}

TEST_F(RulesTest, IdentityCleanups) {
  ValuePtr a = S({I(1)});
  ExprPtr id = SetApply(Input(), Const(a));
  ExpectEquivalentRewrite("apply-identity-elim", id);
  ExprPtr ct = Comp(Predicate::True(), Const(a));
  ExpectEquivalentRewrite("comp-true-elim", ct);
}

TEST_F(RulesTest, Rule16ArrCatAssociativity) {
  auto arr = [](std::vector<ValuePtr> v) {
    return Const(Value::ArrayOf(std::move(v)));
  };
  ExprPtr e = ArrCat(arr({I(1)}), ArrCat(arr({I(2)}), arr({I(3)})));
  ExpectEquivalentRewrite("arrcat-assoc-left", e);
}

TEST_F(RulesTest, Rule17ExtractFromCatNeedsStaticLength) {
  ASSERT_TRUE(db_.CreateNamed("F3",
                              Schema::FixedArr(IntSchema(), 3),
                              Value::ArrayOf({I(1), I(2), I(3)}))
                  .ok());
  ASSERT_TRUE(db_.CreateNamed("F2",
                              Schema::FixedArr(IntSchema(), 2),
                              Value::ArrayOf({I(8), I(9)}))
                  .ok());
  // Index in the left part.
  ExpectEquivalentRewrite("extract-from-arrcat",
                          ArrExtract(2, ArrCat(Var("F3"), Var("F2"))));
  // Index in the right part.
  ExpectEquivalentRewrite("extract-from-arrcat",
                          ArrExtract(5, ArrCat(Var("F3"), Var("F2"))));
  // Variable-length left input: no static size, no rewrite.
  ASSERT_TRUE(db_.CreateNamed("V", Schema::Arr(IntSchema()),
                              Value::ArrayOf({I(1)}))
                  .ok());
  EXPECT_EQ(ApplyOnce("extract-from-arrcat",
                      ArrExtract(1, ArrCat(Var("V"), Var("F2")))),
            nullptr);
}

TEST_F(RulesTest, Rule18ExtractFromSubarr) {
  ExprPtr arr = Const(Value::ArrayOf({I(1), I(2), I(3), I(4), I(5)}));
  ExpectEquivalentRewrite("extract-from-subarr",
                          ArrExtract(2, SubArr(2, 4, arr)));
  // Out-of-slice position must not rewrite (LHS is dne, RHS would not be).
  EXPECT_EQ(
      ApplyOnce("extract-from-subarr", ArrExtract(4, SubArr(2, 4, arr))),
      nullptr);
}

TEST_F(RulesTest, Rule19ExtractThroughArrApply) {
  ExprPtr arr = Const(Value::ArrayOf({I(1), I(2), I(3)}));
  ExprPtr e = ArrExtract(2, ArrApply(Arith("*", Input(), IntLit(5)), arr));
  ExpectEquivalentRewrite("extract-through-arrapply", e);
  // `last` works too.
  ExpectEquivalentRewrite(
      "extract-through-arrapply",
      ArrExtractLast(ArrApply(Arith("*", Input(), IntLit(5)), arr)));
  // COMP inside the subscript blocks the rule (dne drops shift indices).
  ExprPtr blocked = ArrExtract(
      1, ArrApply(Comp(Gt(Input(), IntLit(1)), Input()), arr));
  EXPECT_EQ(ApplyOnce("extract-through-arrapply", blocked), nullptr);
}

TEST_F(RulesTest, Rule20CombineSubarrs) {
  ExprPtr arr = Const(Value::ArrayOf({I(1), I(2), I(3), I(4), I(5), I(6)}));
  ExpectEquivalentRewrite("combine-subarrs", SubArr(2, 3, SubArr(2, 5, arr)));
  // Outer range exceeding the inner one clamps identically.
  ExpectEquivalentRewrite("combine-subarrs", SubArr(2, 9, SubArr(2, 4, arr)));
}

TEST_F(RulesTest, Rule21SubarrFromCat) {
  ASSERT_TRUE(db_.CreateNamed("G3",
                              Schema::FixedArr(IntSchema(), 3),
                              Value::ArrayOf({I(1), I(2), I(3)}))
                  .ok());
  ASSERT_TRUE(db_.CreateNamed("G2",
                              Schema::FixedArr(IntSchema(), 2),
                              Value::ArrayOf({I(8), I(9)}))
                  .ok());
  // Straddling slice.
  ExpectEquivalentRewrite("subarr-from-arrcat",
                          SubArr(2, 4, ArrCat(Var("G3"), Var("G2"))));
  // Entirely within the left part.
  ExpectEquivalentRewrite("subarr-from-arrcat",
                          SubArr(1, 2, ArrCat(Var("G3"), Var("G2"))));
  // Entirely within the right part.
  ExpectEquivalentRewrite("subarr-from-arrcat",
                          SubArr(4, 5, ArrCat(Var("G3"), Var("G2"))));
}

TEST_F(RulesTest, Rule22SubarrBeforeArrApply) {
  ExprPtr arr = Const(Value::ArrayOf({I(1), I(2), I(3), I(4)}));
  ExprPtr e = SubArr(2, 3, ArrApply(Arith("*", Input(), IntLit(2)), arr));
  ExpectEquivalentRewrite("subarr-before-arrapply", e);
  ExprPtr blocked =
      SubArr(1, 2, ArrApply(Comp(Gt(Input(), IntLit(2)), Input()), arr));
  EXPECT_EQ(ApplyOnce("subarr-before-arrapply", blocked), nullptr);
}

TEST_F(RulesTest, Rule23TupCatCommutes) {
  ExprPtr e = TupCat(Const(Value::Tuple({"a"}, {I(1)})),
                     Const(Value::Tuple({"b"}, {I(2)})));
  ExpectEquivalentRewrite("tupcat-commute", e);
}

TEST_F(RulesTest, Rule24ProjectDistributesOverTupCat) {
  ExprPtr e = Project({"b", "a"},
                      TupCat(Const(Value::Tuple({"a", "x"}, {I(1), I(3)})),
                             Const(Value::Tuple({"b"}, {I(2)}))));
  ExpectEquivalentRewrite("project-distributes-over-tupcat", e);
  // Ambiguous provenance (same name on both sides) declines.
  ExprPtr dup = Project({"a"},
                        TupCat(Const(Value::Tuple({"a"}, {I(1)})),
                               Const(Value::Tuple({"a"}, {I(2)}))));
  EXPECT_EQ(ApplyOnce("project-distributes-over-tupcat", dup), nullptr);
}

TEST_F(RulesTest, Rule25ExtractFromTupCat) {
  ExprPtr e = TupExtract("a",
                         TupCat(Const(Value::Tuple({"a"}, {I(1)})),
                                Const(Value::Tuple({"b"}, {I(2)}))));
  ExpectEquivalentRewrite("extract-from-tupcat", e);
  // Field on the right side.
  ExprPtr r = TupExtract("b",
                         TupCat(Const(Value::Tuple({"a"}, {I(1)})),
                                Const(Value::Tuple({"b"}, {I(2)}))));
  ExpectEquivalentRewrite("extract-from-tupcat", r);
}

TEST_F(RulesTest, ExtractFromTupMakeCollapses) {
  // TUP_EXTRACT_v(TUP_v(x)) = x — the translator's environment plumbing.
  ExprPtr e = TupExtract("v", TupMakeNamed("v", Arith("+", IntLit(1),
                                                      IntLit(2))));
  ExpectEquivalentRewrite("extract-from-tupmake", e);
  // A mismatched field must NOT fire (the original is a runtime error).
  ExprPtr bad = TupExtract("w", TupMakeNamed("v", IntLit(1)));
  EXPECT_EQ(ApplyOnce("extract-from-tupmake", bad), nullptr);
  // Default field name "_1".
  ExpectEquivalentRewrite("extract-from-tupmake",
                          TupExtract("_1", TupMake(IntLit(9))));
}

TEST_F(RulesTest, DecorrelateCrossHoistsAnIndependentRange) {
  // The translator's binding of a second range variable y over B, for each
  // environment of x over A: SET_COLLAPSE(SET_APPLY[SET_APPLY[f](CROSS(
  // SET(g), B))](A)). Duplicates on both sides, an unk element in B.
  ASSERT_TRUE(db_.CreateNamed("B", Schema::Set(IntSchema()),
                              Value::SetOfCounted({{I(1), 2}, {I(2), 1},
                                                   {Value::Unk(), 1}}))
                  .ok());
  ExprPtr f = TupCat(TupExtract("_1", Input()),
                     TupMakeNamed("y", TupExtract("_2", Input())));
  auto dependent = [&](ExprPtr g, ExprPtr b) {
    return SetCollapse(SetApply(
        SetApply(f, Cross(SetMake(std::move(g)), std::move(b))),
        Const(Value::SetOfCounted({{I(1), 3}, {I(5), 1}}))));
  };
  ExprPtr x = TupMakeNamed("x", Input());
  ExpectEquivalentRewrite("decorrelate-cross", dependent(x, Var("B")));
  // g may drop environments (dne): both sides drop them.
  ExpectEquivalentRewrite(
      "decorrelate-cross",
      dependent(Comp(Gt(TupExtract("x", Input()), IntLit(2)), x),
                Const(S({I(1), I(2)}))));
  ExprPtr out = ApplyOnce("decorrelate-cross", dependent(x, Var("B")));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->kind(), OpKind::kSetApply);
  EXPECT_EQ(out->child(0)->kind(), OpKind::kCross);
  // A range over the environment (from C in x.kids) stays dependent, and so
  // does one whose collection is not known to be a multiset.
  EXPECT_EQ(ApplyOnce("decorrelate-cross",
                      dependent(x, SetMake(TupExtract("x", Input())))),
            nullptr);
  EXPECT_EQ(ApplyOnce("decorrelate-cross", dependent(x, Var("NoSuchSet"))),
            nullptr);
}

TEST_F(RulesTest, Rule27CombinesComps) {
  ValuePtr t = Value::Tuple({"x", "y"}, {I(5), I(2)});
  ExprPtr e = Comp(Gt(TupExtract("x", Input()), IntLit(1)),
                   Comp(Lt(TupExtract("y", Input()), IntLit(9)), Const(t)));
  ExpectEquivalentRewrite("combine-comps", e);
  // Also when the inner predicate fails: both sides dne.
  ExprPtr f = Comp(Gt(TupExtract("x", Input()), IntLit(1)),
                   Comp(Lt(TupExtract("y", Input()), IntLit(0)), Const(t)));
  ExpectEquivalentRewrite("combine-comps", f);
}

TEST_F(RulesTest, Rule28RefDerefInvertibility) {
  ASSERT_TRUE(db_.catalog().DefineType("Obj", Schema::Tup({{"v", IntSchema()}}))
                  .ok());
  ValuePtr payload = Value::Tuple({"v"}, {I(42)}, "Obj");
  ExprPtr deref_ref = Deref(RefOp(Const(payload), "Obj"));
  ExpectEquivalentRewrite("deref-of-ref", deref_ref);
  // REF(DEREF(r)) = r for an interned/created object. A *distinct* payload
  // is used: rule 28's identity holds up to value-interned identity, so an
  // equal-valued object interned earlier would win (see DESIGN.md).
  ValuePtr payload2 = Value::Tuple({"v"}, {I(43)}, "Obj");
  auto oid = db_.store().Create("Obj", payload2);
  ASSERT_TRUE(oid.ok());
  ExprPtr ref_deref = RefOp(Deref(Const(Value::RefTo(*oid))), "Obj");
  ExpectEquivalentRewrite("ref-of-deref", ref_deref);
}

TEST_F(RulesTest, Rule26PushEnrichmentIntoComp) {
  // The Figure 9 -> Figure 11 pipeline: a selection predicate and a
  // grouping key share DEREF(dept); after the rewrite the deref happens
  // once, inside the COMP's pushed expression.
  Catalog& cat = db_.catalog();
  ASSERT_TRUE(cat.DefineType("Dept",
                             Schema::Tup({{"division", StringSchema()},
                                          {"floor", IntSchema()}}))
                  .ok());
  std::vector<ValuePtr> studs;
  for (int i = 0; i < 12; ++i) {
    ValuePtr dept = Value::Tuple(
        {"division", "floor"},
        {Value::Str(i % 2 ? "eng" : "arts"), I(1 + i % 3)}, "Dept");
    auto oid = db_.store().Create("Dept", dept);
    ASSERT_TRUE(oid.ok());
    studs.push_back(Value::Tuple(
        {"name", "dept"},
        {Value::Str(StrCat("s", i)), Value::RefTo(*oid)}));
  }
  ASSERT_TRUE(db_.CreateNamed(
                    "S",
                    Schema::Set(Schema::Tup({{"name", StringSchema()},
                                             {"dept", Schema::Ref("Dept")}})),
                    S(studs))
                  .ok());
  ExprPtr shared_deref = Deref(TupExtract("dept", Input()));
  // Figure 9 after rule 10: π within groups over GRP(division) of
  // σ(floor = 1).
  ExprPtr fig = SetApply(
      SetApply(Project({"name"}, Input()), Input()),
      Group(TupExtract("division", shared_deref),
            Select(Eq(TupExtract("floor", shared_deref), IntLit(1)),
                   Var("S"))));
  ExprPtr rewritten = ApplyOnce("push-enrichment-into-comp", fig);
  ASSERT_NE(rewritten, nullptr);
  ValuePtr before = Eval(fig);
  ValuePtr after = Eval(rewritten);
  EXPECT_TRUE(before->Equals(*after))
      << "before: " << before->ToString() << "\nafter: " << after->ToString();

  // Deref accounting: the original pipeline derefs in both the selection
  // and the grouping key; the rewritten one only in the enrichment.
  Evaluator ev1(&db_);
  ASSERT_TRUE(ev1.Eval(fig).ok());
  Evaluator ev2(&db_);
  ASSERT_TRUE(ev2.Eval(rewritten).ok());
  EXPECT_LT(ev2.stats().derefs, ev1.stats().derefs);
}

TEST_F(RulesTest, HeuristicFixpointTerminatesAndPreserves) {
  // A deliberately redundant pipeline: chained SET_APPLYs, stacked COMPs,
  // REF/DEREF pair — the heuristic phase should collapse all of it.
  ValuePtr a = S({I(1), I(2), I(3), I(4), I(5), I(6)});
  ExprPtr messy = SetApply(
      Arith("+", Input(), IntLit(0)),
      SetApply(Comp(Gt(Input(), IntLit(1)), Input()),
               SetApply(Comp(Lt(Input(), IntLit(6)), Input()),
                        SetApply(Input(), Const(a)))));
  Rewriter rw(&db_, RuleSet::Heuristic());
  auto rewritten = rw.Rewrite(messy);
  ASSERT_TRUE(rewritten.ok()) << rewritten.status().ToString();
  EXPECT_FALSE(rw.applied().empty());
  EXPECT_LT((*rewritten)->NodeCount(), messy->NodeCount());
  EXPECT_TRUE(Eval(messy)->Equals(*Eval(*rewritten)));
}

}  // namespace
}  // namespace excess
