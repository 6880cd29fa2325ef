// The cost model's structural properties: monotonicity, parameter
// sensitivity, and the liveness discount that credits fused pipelines for
// work skipped by null propagation (regression for the Figure 9-11
// planner behavior).

#include "core/cost.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "objects/database.h"

namespace excess {
namespace {

using namespace alg;  // NOLINT(build/namespaces)

ValuePtr I(int64_t v) { return Value::Int(v); }

class CostTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<ValuePtr> elems;
    for (int i = 0; i < 100; ++i) {
      elems.push_back(Value::Tuple({"x"}, {I(i)}));
    }
    ASSERT_TRUE(db_.CreateNamed("S",
                                Schema::Set(Schema::Tup({{"x", IntSchema()}})),
                                Value::SetOf(elems))
                    .ok());
  }
  CostEstimate Est(const ExprPtr& e, CostParams params = CostParams()) {
    CostModel model(&db_, params);
    auto r = model.Estimate(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : CostEstimate{};
  }
  Database db_;
};

TEST_F(CostTest, RootCardinalityIsExact) {
  EXPECT_DOUBLE_EQ(Est(Var("S")).cardinality, 100);
  EXPECT_DOUBLE_EQ(Est(Const(Value::SetOf({I(1), I(1)}))).cardinality, 2);
  EXPECT_DOUBLE_EQ(Est(IntLit(3)).cardinality, 1);
}

TEST_F(CostTest, MoreWorkCostsMore) {
  ExprPtr scan = SetApply(TupExtract("x", Input()), Var("S"));
  ExprPtr scan_twice = SetApply(Arith("+", Input(), IntLit(1)), scan);
  EXPECT_GT(Est(scan).total, Est(Var("S")).total);
  EXPECT_GT(Est(scan_twice).total, Est(scan).total);
  ExprPtr big = Cross(Var("S"), Var("S"));
  EXPECT_GT(Est(big).cardinality, Est(scan).cardinality);
  EXPECT_GT(Est(big).total, Est(scan).total);
}

TEST_F(CostTest, SelectivityShrinksDownstreamEstimates) {
  ExprPtr filtered = Select(Gt(TupExtract("x", Input()), IntLit(50)),
                            Var("S"));
  CostParams loose;
  loose.selectivity = 0.9;
  CostParams tight;
  tight.selectivity = 0.01;
  EXPECT_GT(Est(filtered, loose).cardinality,
            Est(filtered, tight).cardinality);
  // A group over the filtered set inherits the smaller input.
  ExprPtr grouped = Group(TupExtract("x", Input()), filtered);
  EXPECT_GT(Est(grouped, loose).total, Est(grouped, tight).total);
}

TEST_F(CostTest, LivenessDiscountsWorkBehindComp) {
  // deref(COMP(x)) must cost less than deref(x): the deref only happens
  // for elements the predicate passed (uniform null propagation).
  ExprPtr plain = Deref(Input());
  ExprPtr guarded = Deref(Comp(Predicate::True(), Input()));
  CostParams p;
  p.deref_cost = 100;
  p.selectivity = 0.1;
  // Estimate as subscripts: wrap in SET_APPLY so per-element costs count.
  ExprPtr plan_plain = SetApply(plain, Var("S"));
  ExprPtr plan_guarded = SetApply(guarded, Var("S"));
  EXPECT_LT(Est(plan_guarded, p).total, Est(plan_plain, p).total);
  // And the liveness shrinks multiplicatively through stacked COMPs.
  ExprPtr doubled = SetApply(
      Deref(Comp(Predicate::True(), Comp(Predicate::True(), Input()))),
      Var("S"));
  EXPECT_LT(Est(doubled, p).total, Est(plan_guarded, p).total);
}

TEST_F(CostTest, DerefWeightIsTunable) {
  ExprPtr q = SetApply(Deref(Input()), Var("S"));
  CostParams cheap;
  cheap.deref_cost = 1;
  CostParams pricey;
  pricey.deref_cost = 500;
  EXPECT_GT(Est(q, pricey).total, Est(q, cheap).total);
}

TEST_F(CostTest, CollectionOutputsResetLiveness) {
  // A multiset built from a COMP-bearing subscript has live = 1 (dne
  // occurrences were dropped at construction).
  ExprPtr filtered = Select(Predicate::True(), Var("S"));
  EXPECT_DOUBLE_EQ(Est(filtered).live, 1.0);
  // Scalar pipelines report shrunken liveness.
  CostModel model(&db_);
  auto guarded = model.Estimate(Comp(Predicate::True(), IntLit(1)));
  ASSERT_TRUE(guarded.ok());
  EXPECT_LT(guarded->live, 1.0);
}

TEST_F(CostTest, UnknownNamesStillEstimate) {
  // Var over a missing object estimates conservatively instead of failing
  // (the planner may cost partially-bound trees).
  auto est = Est(Var("Missing"));
  EXPECT_GE(est.cardinality, 1);
}

// --- IDX_PROBE estimates -----------------------------------------------------

class IndexProbeCostTest : public CostTest {
 protected:
  void SetUp() override {
    CostTest::SetUp();
    ASSERT_TRUE(db_.CreateIndex({"xh", "S", {"x"}, IndexKind::kHash}).ok());
    ASSERT_TRUE(
        db_.CreateIndex({"xo", "S", {"x"}, IndexKind::kOrdered}).ok());
  }
  static PredicatePtr X(CmpOp cmp, ExprPtr probe) {
    return Predicate::Atom(TupExtract("x", Input()), cmp, std::move(probe));
  }
  /// IDX_PROBE over `xo` with θ the conjunction of the bounds it serves.
  static ExprPtr Range(CmpOp lo_op, ExprPtr lo, CmpOp hi_op, ExprPtr hi) {
    PredicatePtr theta = Predicate::And(X(lo_op, lo), X(hi_op, hi));
    return IndexProbe("xo", "S", lo_op, lo, Input(), theta, hi_op, hi);
  }
  static ExprPtr OneBound(CmpOp op, ExprPtr probe) {
    return IndexProbe("xo", "S", op, probe, Input(), X(op, probe));
  }
};

TEST_F(IndexProbeCostTest, EqualityEstimatesTheAverageBucket) {
  // 100 distinct keys over 100 elements: one row, not base·selectivity.
  ExprPtr eq = IndexProbe("xh", "S", CmpOp::kEq, IntLit(7), Input(),
                          X(CmpOp::kEq, IntLit(7)));
  EXPECT_DOUBLE_EQ(Est(eq).cardinality, 1.0);
  ExprPtr in = IndexProbe("xh", "S", CmpOp::kIn, Const(Value::SetOf({I(1)})),
                          Input(), X(CmpOp::kIn, Const(Value::SetOf({I(1)}))));
  EXPECT_DOUBLE_EQ(Est(in).cardinality, 1.0);
}

TEST_F(IndexProbeCostTest, ConstantIntervalsInterpolateOverTheKeys) {
  // Keys run 0..99: [10, 29] covers 19/99 of the span.
  ExprPtr narrow = Range(CmpOp::kGe, IntLit(10), CmpOp::kLe, IntLit(29));
  EXPECT_NEAR(Est(narrow).cardinality, 100.0 * 19 / 99, 1e-9);
  // An interval outside the keys, or with lo above hi, still reads a row.
  EXPECT_DOUBLE_EQ(
      Est(Range(CmpOp::kGe, IntLit(500), CmpOp::kLe, IntLit(600))).cardinality,
      1.0);
  EXPECT_DOUBLE_EQ(
      Est(Range(CmpOp::kGe, IntLit(50), CmpOp::kLe, IntLit(40))).cardinality,
      1.0);
  // A wide interval never estimates above the one-bound walks it narrows.
  ExprPtr wide = Range(CmpOp::kGe, IntLit(-5), CmpOp::kLe, IntLit(500));
  EXPECT_DOUBLE_EQ(Est(wide).cardinality,
                   Est(OneBound(CmpOp::kGe, IntLit(-5))).cardinality);
}

TEST_F(IndexProbeCostTest, OtherIntervalsTakeTheSelectivitySquared) {
  // A computed bound is not interpolated: two range atoms, sel² of base.
  ExprPtr computed = Arith("+", IntLit(10), IntLit(0));
  ExprPtr range = Range(CmpOp::kGt, computed, CmpOp::kLt, IntLit(29));
  CostParams params;
  EXPECT_DOUBLE_EQ(Est(range).cardinality,
                   100 * params.selectivity * params.selectivity);
}

TEST_F(IndexProbeCostTest, TwoBoundsCostLessThanEitherBound) {
  // The lowering's candidates for one θ: the interval and each bound.
  ExprPtr computed = Arith("+", IntLit(10), IntLit(0));
  for (const ExprPtr& lo : {IntLit(10), computed}) {
    ExprPtr hi = IntLit(29);
    ExprPtr both = Range(CmpOp::kGe, lo, CmpOp::kLe, hi);
    PredicatePtr theta = both->pred();
    ExprPtr lower = IndexProbe("xo", "S", CmpOp::kGe, lo, Input(), theta);
    ExprPtr upper = IndexProbe("xo", "S", CmpOp::kLe, hi, Input(), theta);
    EXPECT_LT(Est(both).total, Est(lower).total) << lo->ToString();
    EXPECT_LT(Est(both).total, Est(upper).total) << lo->ToString();
  }
}

}  // namespace
}  // namespace excess
