// Persistent secondary indexes (docs/INDEXES.md): key extraction and the
// hash-join-mirroring partition semantics, maintenance through the named-
// object mutation paths and transaction rollback, the `create index` /
// `drop index` statement surface, index-aware lowering adoption, and the
// answer equality of IDX_PROBE / IDX_JOIN against their logical forms —
// including every scan-fallback route.

#include "objects/index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/builder.h"
#include "core/cost.h"
#include "core/eval.h"
#include "core/physical.h"
#include "excess/session.h"
#include "methods/registry.h"
#include "obs/metrics.h"
#include "objects/database.h"

namespace excess {
namespace {

using namespace alg;  // NOLINT(build/namespaces) — test readability

ValuePtr I(int64_t v) { return Value::Int(v); }
ValuePtr S(std::vector<ValuePtr> v) { return Value::SetOf(v); }
ValuePtr Elem(ValuePtr k, ValuePtr v) {
  return Value::Tuple({"k", "v"}, {std::move(k), std::move(v)});
}

PredicatePtr And(PredicatePtr a, PredicatePtr b) {
  return Predicate::And(std::move(a), std::move(b));
}

int64_t Fired(const std::string& rule) {
  return obs::MetricsRegistry::Global()
      .GetCounter("rules.fired." + rule)
      ->value();
}

// --- SecondaryIndex unit behavior -------------------------------------------

TEST(SecondaryIndexTest, IdentityIndexPartitionsLikeTheHashJoin) {
  // Multiset construction drops dne occurrences, so an identity index can
  // only ever see keyed and unk elements; the dne partition fills from
  // dne-valued *fields* (see ExtractKeyClassifiesPathResults).
  Database db;
  SecondaryIndex idx({"i", "Nums", {}, IndexKind::kHash}, &db.store());
  idx.Rebuild(Value::SetOfCounted({{I(1), 2},
                                   {I(2), 1},
                                   {Value::Unk(), 3}}));
  EXPECT_TRUE(idx.Usable());
  EXPECT_EQ(idx.distinct_keys(), 2);
  EXPECT_EQ(idx.keyed_total(), 3);
  EXPECT_EQ(idx.entry_total(), 6);
  ASSERT_NE(idx.EqBucket(I(1)), nullptr);
  EXPECT_EQ(idx.EqBucket(I(1))->TotalCount(), 2);
  EXPECT_EQ(idx.EqBucket(I(7)), nullptr);
  ASSERT_EQ(idx.unk_entries().size(), 1u);
  EXPECT_EQ(idx.unk_entries()[0].count, 3);
  EXPECT_TRUE(idx.dne_entries().empty());
}

TEST(SecondaryIndexTest, DnePartitionFillsFromDneValuedFields) {
  Database db;
  SecondaryIndex idx({"i", "Pairs", {"k"}, IndexKind::kHash}, &db.store());
  idx.Rebuild(Value::SetOfCounted({{Elem(I(1), I(0)), 1},
                                   {Elem(Value::Dne(), I(1)), 2}}));
  EXPECT_TRUE(idx.Usable());
  ASSERT_EQ(idx.dne_entries().size(), 1u);
  EXPECT_EQ(idx.dne_entries()[0].count, 2);
  EXPECT_EQ(idx.entry_total(), 3);
}

TEST(SecondaryIndexTest, ExtractKeyClassifiesPathResults) {
  Database db;
  SecondaryIndex idx({"i", "Pairs", {"k"}, IndexKind::kHash}, &db.store());
  ValuePtr key;
  EXPECT_EQ(idx.ExtractKey(Elem(I(5), I(0)), &key), IndexKeyClass::kKeyed);
  EXPECT_TRUE(key->Equals(*I(5)));
  EXPECT_EQ(idx.ExtractKey(Elem(Value::Unk(), I(0)), &key),
            IndexKeyClass::kUnk);
  EXPECT_EQ(idx.ExtractKey(Elem(Value::Dne(), I(0)), &key),
            IndexKeyClass::kDne);
  // A non-tuple element cannot take the field step: extraction fails, and a
  // failed element must force the scan fallback (errors reproduce exactly).
  EXPECT_EQ(idx.ExtractKey(I(9), &key), IndexKeyClass::kFailed);
  idx.Rebuild(S({Elem(I(1), I(0)), I(9)}));
  EXPECT_GT(idx.failed_count(), 0);
  EXPECT_FALSE(idx.Usable());
}

TEST(SecondaryIndexTest, RebuildOverNonSetDisables) {
  Database db;
  SecondaryIndex idx({"i", "N", {}, IndexKind::kHash}, &db.store());
  idx.Rebuild(I(3));
  EXPECT_TRUE(idx.disabled());
  EXPECT_FALSE(idx.Usable());
  idx.Rebuild(S({I(3)}));
  EXPECT_TRUE(idx.Usable());
  EXPECT_EQ(idx.entry_total(), 1);
}

using RangeEnd = SecondaryIndex::RangeEnd;

/// The first element of every bucket an interval probe walks, in order.
std::vector<ValuePtr> Walk(const SecondaryIndex& idx, RangeEnd lo,
                           RangeEnd hi) {
  std::vector<const SecondaryIndex::Bucket*> out;
  EXPECT_TRUE(idx.OrderedRange(lo, hi, &out));
  std::vector<ValuePtr> firsts;
  for (const auto* b : out) firsts.push_back(b->entries[0].value);
  return firsts;
}

std::string Show(const std::vector<ValuePtr>& vs) {
  std::string out;
  for (const auto& v : vs) out += v->ToString() + " ";
  return out;
}

TEST(SecondaryIndexTest, OrderedRangeServesOneFamilyOnly) {
  Database db;
  SecondaryIndex idx({"i", "N", {}, IndexKind::kOrdered}, &db.store());
  idx.Rebuild(S({I(1), I(3), I(5)}));
  // One-sided probes are intervals with one end open.
  EXPECT_EQ(Show(Walk(idx, {}, {I(3), false})), "1 ");
  EXPECT_EQ(Show(Walk(idx, {}, {I(3), true})), "1 3 ");
  EXPECT_EQ(Show(Walk(idx, {I(3), false}, {})), "5 ");
  EXPECT_EQ(Show(Walk(idx, {I(3), true}, {})), "3 5 ");
  // A keyed bucket outside the probe's family: the scan would TypeError on
  // that comparison, so the index must refuse and let the scan reproduce it.
  std::vector<const SecondaryIndex::Bucket*> out;
  idx.Rebuild(S({I(1), Value::Str("a")}));
  EXPECT_FALSE(idx.OrderedRange({}, {I(3), true}, &out));
  EXPECT_FALSE(idx.OrderedRange({I(0), true}, {I(3), true}, &out));
  // Ends of different families, and two open ends, bound nothing.
  idx.Rebuild(S({I(1), I(3)}));
  EXPECT_FALSE(idx.OrderedRange({I(0), true}, {Value::Str("z"), true}, &out));
  EXPECT_FALSE(idx.OrderedRange({}, {}, &out));
  EXPECT_TRUE(out.empty());
  // Hash indexes never serve ranges.
  SecondaryIndex h({"h", "N", {}, IndexKind::kHash}, &db.store());
  h.Rebuild(S({I(1)}));
  EXPECT_FALSE(h.OrderedRange({}, {I(3), true}, &out));
}

TEST(SecondaryIndexTest, OrderedRangeWalksOnlyTheInterval) {
  Database db;
  SecondaryIndex idx({"i", "N", {}, IndexKind::kOrdered}, &db.store());
  idx.Rebuild(S({I(1), I(2), I(3), I(4), I(5)}));
  EXPECT_EQ(Show(Walk(idx, {I(2), true}, {I(4), true})), "2 3 4 ");
  EXPECT_EQ(Show(Walk(idx, {I(2), false}, {I(4), false})), "3 ");
  EXPECT_EQ(Show(Walk(idx, {I(2), false}, {I(4), true})), "3 4 ");
  // Bounds between keys, and a float bound against int keys.
  EXPECT_EQ(Show(Walk(idx, {Value::Float(1.5), true}, {I(3), true})), "2 3 ");
  // A single key: lo == hi, both inclusive.
  EXPECT_EQ(Show(Walk(idx, {I(3), true}, {I(3), true})), "3 ");
  // Empty intervals walk nothing: lo above hi, or lo == hi with a strict
  // end (the iterators would cross).
  EXPECT_EQ(Show(Walk(idx, {I(4), true}, {I(2), true})), "");
  EXPECT_EQ(Show(Walk(idx, {I(3), false}, {I(3), true})), "");
  EXPECT_EQ(Show(Walk(idx, {I(3), true}, {I(3), false})), "");
  EXPECT_EQ(Show(Walk(idx, {I(9), true}, {I(0), false})), "");
  // An interval past either end of the keys.
  EXPECT_EQ(Show(Walk(idx, {I(6), true}, {I(9), true})), "");
  EXPECT_EQ(Show(Walk(idx, {I(-3), true}, {I(0), true})), "");
}

TEST(SecondaryIndexTest, OrderedRangeKeepsTheNaNTailForInclusiveEnds) {
  // Value::Compare calls NaN equal to every numeric, so a NaN key
  // satisfies <= and >= against any bound, and < and > against none.
  Database db;
  SecondaryIndex idx({"i", "N", {}, IndexKind::kOrdered}, &db.store());
  const ValuePtr nan = Value::Float(std::nan(""));
  idx.Rebuild(S({I(1), I(3), I(5), nan}));
  EXPECT_EQ(Show(Walk(idx, {I(2), true}, {I(4), true})), "3 nan ");
  EXPECT_EQ(Show(Walk(idx, {}, {I(3), true})), "1 3 nan ");
  EXPECT_EQ(Show(Walk(idx, {I(3), true}, {})), "3 5 nan ");
  // Even an empty interval keeps it when both ends are inclusive.
  EXPECT_EQ(Show(Walk(idx, {I(4), true}, {I(2), true})), "nan ");
  // A strict end excludes it, whichever side.
  EXPECT_EQ(Show(Walk(idx, {I(2), false}, {I(4), true})), "3 ");
  EXPECT_EQ(Show(Walk(idx, {I(3), false}, {})), "5 ");
  EXPECT_EQ(Show(Walk(idx, {}, {I(3), false})), "1 ");
  EXPECT_EQ(Show(Walk(idx, {I(3), false}, {I(3), false})), "");
  // A NaN bound has no place in the order: decline.
  std::vector<const SecondaryIndex::Bucket*> out;
  EXPECT_FALSE(idx.OrderedRange({nan, true}, {I(4), true}, &out));
  EXPECT_FALSE(idx.OrderedRange({I(1), true}, {nan, false}, &out));
  EXPECT_TRUE(out.empty());
}

TEST(SecondaryIndexTest, OrderedBucketsGroupCrossKindNumerics) {
  // Bucket equivalence is coarser than Value::Equals: 1 and 1.0 share an
  // ordered bucket (sound — consumers re-evaluate θ on the candidates).
  Database db;
  SecondaryIndex idx({"i", "N", {}, IndexKind::kOrdered}, &db.store());
  idx.Rebuild(S({I(1), Value::Float(1.0), I(2)}));
  EXPECT_EQ(idx.distinct_keys(), 2);
  ASSERT_NE(idx.EqBucket(Value::Float(1.0)), nullptr);
  EXPECT_EQ(idx.EqBucket(Value::Float(1.0))->TotalCount(), 2);
}

TEST(SecondaryIndexTest, IncrementalAddMatchesRebuild) {
  Database db;
  std::vector<SetEntry> data = {{Elem(I(1), I(0)), 2}, {Elem(I(1), I(1)), 1},
                                {Elem(I(2), I(0)), 3}, {Elem(Value::Unk(),
                                                             I(0)), 1}};
  for (IndexKind kind : {IndexKind::kHash, IndexKind::kOrdered}) {
    SecondaryIndex whole({"a", "P", {"k"}, kind}, &db.store());
    whole.Rebuild(Value::SetOfCounted(data));
    SecondaryIndex grown({"b", "P", {"k"}, kind}, &db.store());
    grown.Rebuild(Value::EmptySet());
    for (const auto& e : data) grown.Add(e.value, e.count);
    EXPECT_EQ(grown.distinct_keys(), whole.distinct_keys());
    EXPECT_EQ(grown.keyed_total(), whole.keyed_total());
    EXPECT_EQ(grown.entry_total(), whole.entry_total());
    ASSERT_NE(grown.EqBucket(I(1)), nullptr);
    EXPECT_EQ(grown.EqBucket(I(1))->TotalCount(),
              whole.EqBucket(I(1))->TotalCount());
    EXPECT_EQ(grown.unk_entries().size(), whole.unk_entries().size());
  }
}

// --- Database maintenance ---------------------------------------------------

class IndexDbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateNamed("Nums", Schema::Set(IntSchema()),
                                Value::SetOf({I(1), I(2), I(2)}))
                    .ok());
    ASSERT_TRUE(
        db_.CreateNamed("Pairs",
                        Schema::Set(Schema::Tup({{"k", IntSchema()},
                                                 {"v", IntSchema()}})),
                        S({Elem(I(1), I(10)), Elem(I(2), I(20))}))
            .ok());
    registry_ = std::make_unique<MethodRegistry>(&db_.catalog());
    session_ = std::make_unique<Session>(&db_, registry_.get());
  }
  void Run(const std::string& stmt) {
    auto r = session_->Execute(stmt);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << stmt;
  }
  Database db_;
  std::unique_ptr<MethodRegistry> registry_;
  std::unique_ptr<Session> session_;
};

TEST_F(IndexDbTest, CreateValidatesTargetAndName) {
  EXPECT_FALSE(db_.CreateIndex({"i", "Missing", {}, IndexKind::kHash}).ok());
  ASSERT_TRUE(db_.CreateIndex({"i", "Nums", {}, IndexKind::kHash}).ok());
  // Names are unique across the database.
  EXPECT_FALSE(db_.CreateIndex({"i", "Pairs", {"k"}, IndexKind::kHash}).ok());
  EXPECT_FALSE(db_.DropIndex("nope").ok());
  ASSERT_TRUE(db_.CreateIndex({"j", "Nums", {}, IndexKind::kOrdered}).ok());
  EXPECT_EQ(db_.IndexesOn("Nums").size(), 2u);
  EXPECT_EQ(db_.IndexDefs().size(), 2u);
  EXPECT_EQ(db_.IndexDefs()[0].name, "i");
  ASSERT_TRUE(db_.DropIndex("i").ok());
  EXPECT_EQ(db_.FindIndex("i"), nullptr);
  EXPECT_EQ(db_.IndexesOn("Nums").size(), 1u);
}

TEST_F(IndexDbTest, MutationsMaintainTheEntries) {
  ASSERT_TRUE(db_.CreateIndex({"i", "Nums", {}, IndexKind::kHash}).ok());
  const SecondaryIndex* idx = db_.FindIndex("i");
  ASSERT_NE(idx, nullptr);
  EXPECT_EQ(idx->EqBucket(I(2))->TotalCount(), 2);
  // AppendNamed merges incrementally.
  ASSERT_TRUE(db_.AppendNamed("Nums", S({I(2), I(9)})).ok());
  EXPECT_EQ(idx->EqBucket(I(2))->TotalCount(), 3);
  EXPECT_EQ(idx->EqBucket(I(9))->TotalCount(), 1);
  // SetNamed rebinds: a full rebuild over the new value.
  ASSERT_TRUE(db_.SetNamed("Nums", S({I(7)})).ok());
  EXPECT_EQ(idx->EqBucket(I(2)), nullptr);
  EXPECT_EQ(idx->EqBucket(I(7))->TotalCount(), 1);
  EXPECT_EQ(idx->entry_total(), 1);
}

TEST_F(IndexDbTest, TransactionRollbackRestoresIndexDdlAndEntries) {
  Run("create index ik on Pairs (k)");
  Run("begin");
  Run("drop index ik");
  Run("create index tmp on Nums ()");
  Run("append 9 to Nums");
  Run("rollback");
  // DDL undone both ways, and entries reflect the rolled-back base set.
  EXPECT_EQ(db_.FindIndex("tmp"), nullptr);
  const SecondaryIndex* ik = db_.FindIndex("ik");
  ASSERT_NE(ik, nullptr);
  EXPECT_EQ(ik->EqBucket(I(1))->TotalCount(), 1);
  Run("create index in2 on Nums ()");
  Run("begin");
  Run("append 9 to Nums");
  Run("rollback");
  EXPECT_EQ(db_.FindIndex("in2")->EqBucket(I(9)), nullptr);
}

// --- the statement surface --------------------------------------------------

TEST_F(IndexDbTest, CreateAndDropIndexStatements) {
  Run("create index ih on Pairs (k)");
  const SecondaryIndex* ih = db_.FindIndex("ih");
  ASSERT_NE(ih, nullptr);
  EXPECT_EQ(ih->def().kind, IndexKind::kHash);
  ASSERT_EQ(ih->def().path.size(), 1u);
  EXPECT_EQ(ih->def().path[0], "k");
  Run("create index io on Nums () using ordered");
  EXPECT_EQ(db_.FindIndex("io")->def().kind, IndexKind::kOrdered);
  Run("drop index ih");
  EXPECT_EQ(db_.FindIndex("ih"), nullptr);

  // Semantic and syntactic rejections.
  EXPECT_FALSE(session_->Execute("create index x on Missing ()").ok());
  EXPECT_FALSE(session_->Execute("drop index nope").ok());
  EXPECT_FALSE(
      session_->Execute("create index x on Nums () using btree").ok());
  EXPECT_FALSE(session_->Execute("create index x Nums ()").ok());
}

TEST_F(IndexDbTest, AnObjectNamedIndexStillParses) {
  // `index` is not a keyword: `create index : int4` is the plain named-
  // object form, disambiguated by the ':' after the name.
  Run("create index : int4");
  EXPECT_TRUE(db_.HasNamed("index"));
}

// --- lowering adoption ------------------------------------------------------

/// A database with one sizable indexed set, so the cost model prefers the
/// index whenever one is usable.
class IndexLoweringTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<SetEntry> nums, pairs, outer;
    for (int i = 0; i < 200; ++i) {
      nums.push_back({I(i), 1});
      pairs.push_back({Elem(I(i % 50), I(i)), 1});
    }
    for (int i = 0; i < 8; ++i) outer.push_back({Elem(I(i * 5), I(i)), 1});
    ASSERT_TRUE(db_.CreateNamed("Nums", Schema::Set(IntSchema()),
                                Value::SetOfCounted(std::move(nums)))
                    .ok());
    SchemaPtr pair_schema = Schema::Set(
        Schema::Tup({{"k", IntSchema()}, {"v", IntSchema()}}));
    ASSERT_TRUE(db_.CreateNamed("Pairs", pair_schema,
                                Value::SetOfCounted(std::move(pairs)))
                    .ok());
    ASSERT_TRUE(db_.CreateNamed("Outer", pair_schema,
                                Value::SetOfCounted(std::move(outer)))
                    .ok());
  }
  ExprPtr Lower(const ExprPtr& plan) {
    return LowerPhysical(plan, &db_, params_);
  }
  ValuePtr Run(const ExprPtr& e) {
    Evaluator ev(&db_);
    auto r = ev.Eval(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }
  Database db_;
  CostParams params_;
};

TEST_F(IndexLoweringTest, SelectionLowersToIndexProbe) {
  ASSERT_TRUE(db_.CreateIndex({"inum", "Nums", {}, IndexKind::kHash}).ok());
  ExprPtr plan = Select(Eq(Input(), IntLit(5)), Var("Nums"));
  int64_t before = Fired("lower-index-probe");
  ExprPtr lowered = Lower(plan);
  ASSERT_EQ(lowered->kind(), OpKind::kIndexProbe);
  EXPECT_EQ(lowered->name(), "inum");
  EXPECT_EQ(Fired("lower-index-probe"), before + 1);
  // The plain overload — and a dropped index — leave the scan alone.
  EXPECT_EQ(LowerPhysical(plan)->kind(), OpKind::kSetApply);
  ASSERT_TRUE(db_.DropIndex("inum").ok());
  EXPECT_EQ(Lower(plan)->kind(), OpKind::kSetApply);
}

TEST_F(IndexLoweringTest, RangeProbesRequireAnOrderedIndex) {
  ASSERT_TRUE(db_.CreateIndex({"ih", "Nums", {}, IndexKind::kHash}).ok());
  ExprPtr range = Select(Lt(Input(), IntLit(10)), Var("Nums"));
  EXPECT_EQ(Lower(range)->kind(), OpKind::kSetApply);
  ASSERT_TRUE(
      db_.CreateIndex({"io", "Nums", {}, IndexKind::kOrdered}).ok());
  ExprPtr lowered = Lower(range);
  ASSERT_EQ(lowered->kind(), OpKind::kIndexProbe);
  EXPECT_EQ(lowered->name(), "io");
}

TEST_F(IndexLoweringTest, TwoSidedRangesLowerToOneIntervalProbe) {
  ASSERT_TRUE(db_.CreateIndex({"io", "Nums", {}, IndexKind::kOrdered}).ok());
  auto lowered = [&](PredicatePtr theta) {
    return Lower(Select(std::move(theta), Var("Nums")));
  };
  auto expect_interval = [&](const ExprPtr& plan, CmpOp lo, CmpOp hi) {
    ASSERT_EQ(plan->kind(), OpKind::kIndexProbe) << plan->ToString();
    ASSERT_EQ(plan->num_children(), 2u) << plan->ToString();
    EXPECT_EQ(static_cast<CmpOp>(plan->index()), lo);
    EXPECT_EQ(static_cast<CmpOp>(plan->hi()), hi);
    EXPECT_TRUE(plan->child(0)->Equals(IntLit(10)));
    EXPECT_TRUE(plan->child(1)->Equals(IntLit(20)));
  };
  expect_interval(
      lowered(And(Ge(Input(), IntLit(10)), Le(Input(), IntLit(20)))),
      CmpOp::kGe, CmpOp::kLe);
  // Mirrored operands and conjunct order: the bounds are the same.
  expect_interval(
      lowered(And(Ge(IntLit(20), Input()), Le(IntLit(10), Input()))),
      CmpOp::kGe, CmpOp::kLe);
  // Strict bounds, and a third conjunct between them.
  expect_interval(
      lowered(And(Gt(Input(), IntLit(10)),
                  And(Ne(Input(), IntLit(15)), Lt(Input(), IntLit(20))))),
      CmpOp::kGt, CmpOp::kLt);
  // One bound stays the one-bound probe; two lower bounds pair with nothing.
  ExprPtr one = lowered(Ge(Input(), IntLit(90)));
  ASSERT_EQ(one->kind(), OpKind::kIndexProbe);
  EXPECT_EQ(one->num_children(), 1u);
  ExprPtr two_lows =
      lowered(And(Ge(Input(), IntLit(10)), Gt(Input(), IntLit(20))));
  ASSERT_EQ(two_lows->kind(), OpKind::kIndexProbe);
  EXPECT_EQ(two_lows->num_children(), 1u);
  // The answers agree with the scan.
  PredicatePtr theta = And(Gt(Input(), IntLit(10)), Le(Input(), IntLit(20)));
  ExprPtr scan = Select(theta, Var("Nums"));
  ValuePtr want = Run(scan);
  ASSERT_NE(want, nullptr);
  EXPECT_EQ(want->TotalCount(), 10);
  EXPECT_TRUE(want->Equals(*Run(Lower(scan))));
}

TEST_F(IndexLoweringTest, FieldPathMustMatchTheIndexPath) {
  ASSERT_TRUE(db_.CreateIndex({"ik", "Pairs", {"k"}, IndexKind::kHash}).ok());
  ExprPtr on_k =
      Select(Eq(TupExtract("k", Input()), IntLit(3)), Var("Pairs"));
  EXPECT_EQ(Lower(on_k)->kind(), OpKind::kIndexProbe);
  ExprPtr on_v =
      Select(Eq(TupExtract("v", Input()), IntLit(3)), Var("Pairs"));
  EXPECT_EQ(Lower(on_v)->kind(), OpKind::kSetApply);
  // A non-hoistable probe (free INPUT on both sides) is not a probe at all.
  ExprPtr self = Select(
      Eq(TupExtract("k", Input()), TupExtract("v", Input())), Var("Pairs"));
  EXPECT_EQ(Lower(self)->kind(), OpKind::kSetApply);
}

TEST_F(IndexLoweringTest, EquiJoinLowersToIndexJoin) {
  ASSERT_TRUE(db_.CreateIndex({"ik", "Pairs", {"k"}, IndexKind::kHash}).ok());
  PredicatePtr theta = Eq(TupExtract("k", TupExtract("_1", Input())),
                          TupExtract("k", TupExtract("_2", Input())));
  ExprPtr plan = SetApply(Comp(theta, Input()),
                          Cross(Var("Outer"), Var("Pairs")));
  int64_t before = Fired("lower-index-join");
  ExprPtr lowered = Lower(plan);
  ASSERT_EQ(lowered->kind(), OpKind::kIndexJoin);
  EXPECT_EQ(lowered->name(), "ik");
  EXPECT_EQ(lowered->index(), 1);  // the indexed side is B
  EXPECT_EQ(Fired("lower-index-join"), before + 1);
  // Index-blind lowering still produces the hash join.
  EXPECT_EQ(LowerPhysical(plan)->kind(), OpKind::kHashJoin);
  // The answers all agree.
  ValuePtr logical = Run(plan);
  ValuePtr hashed = Run(LowerPhysical(plan));
  ValuePtr indexed = Run(lowered);
  ASSERT_NE(logical, nullptr);
  EXPECT_TRUE(logical->Equals(*hashed));
  EXPECT_TRUE(logical->Equals(*indexed));
  EXPECT_GT(logical->TotalCount(), 0);
}

// --- IDX_PROBE / IDX_JOIN evaluation ----------------------------------------

class IndexEvalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Nulls in both key and payload positions; duplicate occurrences.
    ASSERT_TRUE(
        db_.CreateNamed(
               "Pairs",
               Schema::Set(Schema::Tup({{"k", IntSchema()},
                                        {"v", IntSchema()}})),
               Value::SetOfCounted({{Elem(I(1), I(10)), 2},
                                    {Elem(I(2), I(20)), 1},
                                    {Elem(I(3), Value::Unk()), 1},
                                    {Elem(Value::Unk(), I(30)), 2},
                                    {Elem(Value::Dne(), I(40)), 1}}))
            .ok());
  }
  ValuePtr Run(const ExprPtr& e) {
    Evaluator ev(&db_);
    auto r = ev.Eval(e);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? *r : nullptr;
  }
  PredicatePtr KeyCmp(CmpOp cmp, ExprPtr probe) {
    return Predicate::Atom(TupExtract("k", Input()), cmp, std::move(probe));
  }
  void ExpectProbeEqualsLogical(CmpOp cmp, const ExprPtr& probe,
                                IndexKind kind) {
    IndexDef def{"i", "Pairs", {"k"}, kind};
    ASSERT_TRUE(db_.CreateIndex(def).ok());
    PredicatePtr theta = KeyCmp(cmp, probe);
    ExprPtr logical = Select(theta, Var("Pairs"));
    ExprPtr physical =
        IndexProbe("i", "Pairs", cmp, probe, Input(), theta);
    ValuePtr vl = Run(logical);
    ValuePtr vp = Run(physical);
    ASSERT_TRUE(vl != nullptr && vp != nullptr);
    EXPECT_TRUE(vl->Equals(*vp))
        << "logical: " << vl->ToString() << "\nprobe:   " << vp->ToString();
    ASSERT_TRUE(db_.DropIndex("i").ok());
  }
  Database db_;
};

TEST_F(IndexEvalTest, ProbesMatchTheLogicalSelection) {
  // Equality: unk keys join the candidates, the unk payload rides through θ.
  ExpectProbeEqualsLogical(CmpOp::kEq, IntLit(1), IndexKind::kHash);
  ExpectProbeEqualsLogical(CmpOp::kEq, IntLit(99), IndexKind::kHash);
  // Membership, including a null member in the probe set.
  ExpectProbeEqualsLogical(CmpOp::kIn,
                           Const(S({I(1), I(3), Value::Unk()})),
                           IndexKind::kHash);
  // Ranges over the ordered index.
  ExpectProbeEqualsLogical(CmpOp::kLt, IntLit(3), IndexKind::kOrdered);
  ExpectProbeEqualsLogical(CmpOp::kGe, IntLit(2), IndexKind::kOrdered);
  // Null probes: unk matches everything as unk, dne only meets unk keys.
  ExpectProbeEqualsLogical(CmpOp::kEq, Const(Value::Unk()),
                           IndexKind::kHash);
  ExpectProbeEqualsLogical(CmpOp::kEq, Const(Value::Dne()),
                           IndexKind::kHash);
  // kNe has no index support — the operator must scan, same answer.
  ExpectProbeEqualsLogical(CmpOp::kNe, IntLit(1), IndexKind::kHash);
}

TEST_F(IndexEvalTest, IntervalProbesMatchTheLogicalSelection) {
  // NaN and float keys beside the int, unk and dne keys of the fixture.
  ASSERT_TRUE(db_.AppendNamed("Pairs",
                              Value::SetOfCounted(
                                  {{Elem(Value::Float(std::nan("")), I(50)), 2},
                                   {Elem(Value::Float(2.0), I(60)), 1},
                                   {Elem(Value::Float(2.5), I(70)), 3}}))
                  .ok());
  ASSERT_TRUE(
      db_.CreateIndex({"i", "Pairs", {"k"}, IndexKind::kOrdered}).ok());
  const ValuePtr bounds[] = {I(1),         I(2),          Value::Float(2.5),
                             I(9),         Value::Unk(),  Value::Dne(),
                             Value::Float(std::nan("")), Value::Str("a")};
  const CmpOp lows[] = {CmpOp::kGt, CmpOp::kGe};
  const CmpOp highs[] = {CmpOp::kLt, CmpOp::kLe};
  int compared = 0;
  for (const ValuePtr& lo : bounds) {
    for (const ValuePtr& hi : bounds) {
      for (CmpOp lo_op : lows) {
        for (CmpOp hi_op : highs) {
          PredicatePtr theta = And(KeyCmp(lo_op, Const(lo)),
                                   KeyCmp(hi_op, Const(hi)));
          Evaluator el(&db_), ep(&db_);
          auto vl = el.Eval(Select(theta, Var("Pairs")));
          auto vp = ep.Eval(IndexProbe("i", "Pairs", lo_op, Const(lo), Input(),
                                       theta, hi_op, Const(hi)));
          // A cross-family bound errors on the first element it meets. A
          // probe may skip that element (its other bound is false there),
          // as any probe skips elements whose indexed atom is false.
          if (!vl.ok()) continue;
          ASSERT_TRUE(vp.ok()) << vp.status().ToString();
          EXPECT_TRUE((*vl)->Equals(**vp))
              << theta->ToString() << "\nlogical: " << (*vl)->ToString()
              << "\nprobe:   " << (*vp)->ToString();
          ++compared;
        }
      }
    }
  }
  EXPECT_GT(compared, 100);
}

TEST_F(IndexEvalTest, IntervalProbeExaminesOnlyItsCandidates) {
  // EXPLAIN ANALYZE's in= counts the candidate occurrences: here the
  // bucket of key 2 and the two unk-keyed occurrences, not all eight.
  ASSERT_TRUE(
      db_.CreateIndex({"i", "Pairs", {"k"}, IndexKind::kOrdered}).ok());
  PredicatePtr theta =
      And(KeyCmp(CmpOp::kGt, IntLit(1)), KeyCmp(CmpOp::kLt, IntLit(3)));
  ExprPtr probe = IndexProbe("i", "Pairs", CmpOp::kGt, IntLit(1), Input(),
                             theta, CmpOp::kLt, IntLit(3));
  Evaluator ev(&db_);
  PlanProfile profile;
  ev.set_profile(&profile);
  auto r = ev.Eval(probe);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE((*r)->Equals(*Run(Select(theta, Var("Pairs")))));
  const NodeProfile* np = profile.Find(probe.get());
  ASSERT_NE(np, nullptr);
  EXPECT_EQ(np->occurrences_in, 3);
  EXPECT_EQ(np->out_occurrences, 3);
}

TEST_F(IndexEvalTest, MissingIndexFallsBackToTheScan) {
  PredicatePtr theta = KeyCmp(CmpOp::kEq, IntLit(1));
  ExprPtr physical =
      IndexProbe("ghost", "Pairs", CmpOp::kEq, IntLit(1), Input(), theta);
  auto* fallbacks =
      obs::MetricsRegistry::Global().GetCounter("index.probe_fallbacks");
  int64_t before = fallbacks->value();
  ValuePtr vp = Run(physical);
  ASSERT_NE(vp, nullptr);
  EXPECT_TRUE(vp->Equals(*Run(Select(theta, Var("Pairs")))));
  EXPECT_EQ(fallbacks->value(), before + 1);
}

TEST_F(IndexEvalTest, FailingProbeExpressionFallsBackLikeTheLogicalPlan) {
  // A hoisted probe that errors must not fail the operator outright: the
  // scan fallback reproduces the logical behavior exactly — including the
  // error, since predicate atoms evaluate strictly.
  ASSERT_TRUE(db_.CreateIndex({"i", "Pairs", {"k"}, IndexKind::kHash}).ok());
  ExprPtr boom = Arith("/", IntLit(1), IntLit(0));
  PredicatePtr theta = KeyCmp(CmpOp::kEq, boom);
  Evaluator el(&db_), ep(&db_);
  auto rl = el.Eval(Select(theta, Var("Pairs")));
  auto rp = ep.Eval(IndexProbe("i", "Pairs", CmpOp::kEq, boom, Input(),
                               theta));
  ASSERT_FALSE(rl.ok());
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rl.status().ToString(), rp.status().ToString());

  // But where the logical plan never consults θ — COMP maps an unk operand
  // to unk without evaluating the predicate — the probe path must succeed
  // too: an all-unk base set is exactly that situation, and the fallback
  // scan keeps it error-free.
  ASSERT_TRUE(db_.CreateNamed("Unks", Schema::Set(IntSchema()),
                              Value::SetOfCounted({{Value::Unk(), 2}}))
                  .ok());
  ASSERT_TRUE(db_.CreateIndex({"u", "Unks", {}, IndexKind::kHash}).ok());
  PredicatePtr id_theta = Predicate::Atom(Input(), CmpOp::kEq, boom);
  ValuePtr vl = Run(Select(id_theta, Var("Unks")));
  ValuePtr vp =
      Run(IndexProbe("u", "Unks", CmpOp::kEq, boom, Input(), id_theta));
  ASSERT_TRUE(vl != nullptr && vp != nullptr);
  EXPECT_TRUE(vl->Equals(*vp));
  EXPECT_EQ(vp->CountOf(Value::Unk()), 2);
}

// --- the session / explain surface ------------------------------------------

class IndexSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::vector<SetEntry> nums;
    for (int i = 0; i < 100; ++i) nums.push_back({I(i), 1});
    ASSERT_TRUE(db_.CreateNamed("Nums", Schema::Set(IntSchema()),
                                Value::SetOfCounted(std::move(nums)))
                    .ok());
    registry_ = std::make_unique<MethodRegistry>(&db_.catalog());
    session_ = std::make_unique<Session>(&db_, registry_.get());
  }
  std::string Run(const std::string& q) {
    auto r = session_->Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << q;
    if (!r.ok() || *r == nullptr) return "";
    return (*r)->kind() == ValueKind::kString ? (*r)->as_string()
                                              : (*r)->ToString();
  }
  Database db_;
  std::unique_ptr<MethodRegistry> registry_;
  std::unique_ptr<Session> session_;
};

TEST_F(IndexSessionTest, ExplainShowsTheProbeAndTheKnobDisablesIt) {
  Run("create index inum on Nums ()");
  const std::string q =
      "explain retrieve (n) from n in Nums where n = 5";
  std::string with = Run(q);
  EXPECT_NE(with.find("IDX_PROBE"), std::string::npos) << with;
  // EXCESS_INDEX_LOWERING=0: plans are index-neutral, indexes or not.
  setenv("EXCESS_INDEX_LOWERING", "0", /*overwrite=*/1);
  std::string without = Run(q);
  unsetenv("EXCESS_INDEX_LOWERING");
  EXPECT_EQ(without.find("IDX_PROBE"), std::string::npos) << without;
  // And the answers agree either way.
  Run("create index io on Nums () using ordered");
  std::string on = Run("retrieve (n) from n in Nums where n < 3");
  setenv("EXCESS_INDEX_LOWERING", "0", /*overwrite=*/1);
  std::string off = Run("retrieve (n) from n in Nums where n < 3");
  unsetenv("EXCESS_INDEX_LOWERING");
  EXPECT_EQ(on, off);
}

TEST_F(IndexSessionTest, ExplainAnalyzeReportsProbeMetrics) {
  Run("create index inum on Nums ()");
  auto* probes = obs::MetricsRegistry::Global().GetCounter("index.probes");
  int64_t before = probes->value();
  Run("explain analyze retrieve (n) from n in Nums where n = 5");
  EXPECT_GT(probes->value(), before);
}

}  // namespace
}  // namespace excess
