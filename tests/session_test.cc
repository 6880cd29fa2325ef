// End-to-end EXCESS execution: the paper's §2.2 and §5 queries run through
// parse → translate → (optimize) → evaluate against the Figure 1 database,
// checked against hand-walked references.

#include "excess/session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/explain.h"
#include "university/university.h"
#include "util/string_util.h"

namespace excess {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    params_.num_departments = 5;
    params_.num_employees = 40;
    params_.num_students = 30;
    params_.num_floors = 5;
    ASSERT_TRUE(BuildUniversity(&db_, params_).ok());
    registry_ = std::make_unique<MethodRegistry>(&db_.catalog());
    session_ = std::make_unique<Session>(&db_, registry_.get());
  }

  ValuePtr Run(const std::string& q) {
    auto r = session_->Execute(q);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << q;
    return r.ok() ? *r : nullptr;
  }

  ValuePtr EmployeeAt(int i) {
    ValuePtr employees = *db_.NamedValue("Employees");
    return *db_.store().Deref(employees->entries()[i].value->oid());
  }

  UniversityParams params_;
  Database db_;
  std::unique_ptr<MethodRegistry> registry_;
  std::unique_ptr<Session> session_;
};

TEST_F(SessionTest, Figure1DdlExecutes) {
  // The DDL of Figure 1 runs verbatim against a fresh database.
  Database fresh;
  MethodRegistry methods(&fresh.catalog());
  Session s(&fresh, &methods);
  auto r = s.Execute(R"(
    define type Person: (
      ssnum: int4, name: char[], street: char[20],
      city: char[10], zip: int4, birthday: Date )
    define type Employee: (
      jobtitle: char[20], dept: ref Department, manager: ref Employee,
      sub_ords: { ref Employee }, salary: int4, kids: { Person } )
      inherits Person
    define type Student: (
      gpa: float4, dept: ref Department, advisor: ref Employee )
      inherits Person
    define type Department: (
      division: char[], name: char[], floor: int4,
      employees: { ref Employee } )
    create Employees: { ref Employee }
    create Students: { ref Student }
    create Departments: { ref Department }
    create TopTen: array [1..10] of ref Employee
  )");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(fresh.catalog().HasType("Student"));
  EXPECT_TRUE(fresh.catalog().IsSubtype("Employee", "Person"));
  EXPECT_TRUE(fresh.catalog().Validate().ok());
  EXPECT_TRUE(fresh.HasNamed("TopTen"));
  // Inherited + declared attributes visible on Employee.
  auto eff = fresh.catalog().EffectiveSchema("Employee");
  ASSERT_TRUE(eff.ok());
  EXPECT_GE((*eff)->fields().size(), 12u);
}

TEST_F(SessionTest, FirstPaperQueryKidsOnFloor2) {
  // §2.2: names of the children of employees working on the 2nd floor.
  ValuePtr got = Run(
      "range of E is Employees\n"
      "retrieve (C.name) from C in E.kids where E.dept.floor = 2");
  ASSERT_NE(got, nullptr);

  std::vector<ValuePtr> expected;
  ValuePtr employees = *db_.NamedValue("Employees");
  for (const auto& e : employees->entries()) {
    ValuePtr emp = *db_.store().Deref(e.value->oid());
    ValuePtr dept = *db_.store().Deref((*emp->Field("dept"))->oid());
    if ((*dept->Field("floor"))->as_int() != 2) continue;
    for (const auto& kid : (*emp->Field("kids"))->entries()) {
      expected.push_back(*kid.value->Field("name"));
    }
  }
  EXPECT_TRUE(got->Equals(*Value::SetOf(expected)))
      << got->ToString();
  EXPECT_GT(got->TotalCount(), 0);
}

TEST_F(SessionTest, SecondPaperQueryCorrelatedAggregate) {
  // §2.2 second example with `age` as a virtual field (method) of Person,
  // computed from a fixed "current date".
  ValuePtr r0 = Run(
      "define Person function age () returns int4 {"
      "  retrieve ((20000 - this.birthday) / 365) }");
  (void)r0;
  ValuePtr got = Run(
      "range of EMP is Employees\n"
      "retrieve (EMP.name, min(E.kids.age from E in Employees\n"
      "                        where E.dept.floor = EMP.dept.floor))");
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(got->is_set());
  EXPECT_EQ(got->TotalCount(), params_.num_employees);

  // Reference for one employee: min kid age among same-floor employees.
  ValuePtr employees = *db_.NamedValue("Employees");
  ValuePtr emp0 = EmployeeAt(0);
  int64_t floor0 =
      (*(*db_.store().Deref((*emp0->Field("dept"))->oid()))->Field("floor"))
          ->as_int();
  // `this.birthday` is a date, so the arithmetic runs in floating point —
  // the reference reproduces the engine's exact computation.
  double expected_min = std::numeric_limits<double>::max();
  for (const auto& e : employees->entries()) {
    ValuePtr emp = *db_.store().Deref(e.value->oid());
    ValuePtr dept = *db_.store().Deref((*emp->Field("dept"))->oid());
    if ((*dept->Field("floor"))->as_int() != floor0) continue;
    for (const auto& kid : (*emp->Field("kids"))->entries()) {
      double age =
          (20000.0 - static_cast<double>(
                         (*kid.value->Field("birthday"))->as_int())) /
          365.0;
      expected_min = std::min(expected_min, age);
    }
  }
  ValuePtr expected_row = Value::Tuple(
      {"name", "min"}, {*emp0->Field("name"), Value::Float(expected_min)});
  EXPECT_GE(got->CountOf(expected_row), 1) << got->ToString();
}

TEST_F(SessionTest, Figure3TopTenQuery) {
  ValuePtr got = Run("retrieve (TopTen[5].name, TopTen[5].salary)");
  ASSERT_NE(got, nullptr);
  ValuePtr top = *db_.NamedValue("TopTen");
  ValuePtr emp5 = *db_.store().Deref(top->elems()[4]->oid());
  ValuePtr expected =
      Value::Tuple({"name", "salary"},
                   {*emp5->Field("name"), *emp5->Field("salary")});
  EXPECT_TRUE(got->Equals(*expected)) << got->ToString();
}

TEST_F(SessionTest, Figure4ImplicitRange) {
  // Functional join with an implicit range over Employees.
  ValuePtr got = Run(
      "retrieve (Employees.dept.name) where Employees.city = \"city_0\"");
  ASSERT_NE(got, nullptr);
  std::vector<ValuePtr> expected;
  ValuePtr employees = *db_.NamedValue("Employees");
  for (const auto& e : employees->entries()) {
    ValuePtr emp = *db_.store().Deref(e.value->oid());
    if ((*emp->Field("city"))->as_string() != "city_0") continue;
    ValuePtr dept = *db_.store().Deref((*emp->Field("dept"))->oid());
    expected.push_back(*dept->Field("name"));
  }
  EXPECT_TRUE(got->Equals(*Value::SetOf(expected))) << got->ToString();
}

TEST_F(SessionTest, Section5Example1GroupedJoin) {
  // Example 1 of §5 over the advisor-as-name variant of the database.
  Database db2;
  UniversityParams p2 = params_;
  p2.advisor_as_name = true;
  ASSERT_TRUE(BuildUniversity(&db2, p2).ok());
  MethodRegistry m2(&db2.catalog());
  Session s2(&db2, &m2);
  auto got = s2.Execute(
      "range of S is Students, E is Employees\n"
      "retrieve unique (S.dept.name, E.name) by S.dept "
      "where S.advisor = E.name");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE((*got)->is_set());
  EXPECT_GT((*got)->TotalCount(), 0);
  // Every group member is a distinct (dept name, advisor name) pair and
  // group members are deduplicated.
  for (const auto& group : (*got)->entries()) {
    ASSERT_TRUE(group.value->is_set());
    for (const auto& member : group.value->entries()) {
      EXPECT_EQ(member.count, 1);
      ASSERT_TRUE(member.value->is_tuple());
      EXPECT_EQ(member.value->num_fields(), 2u);
    }
  }
}

TEST_F(SessionTest, Section5Example2GroupedSelection) {
  // Example 2 of §5: student names grouped by division, floor-5 majors.
  ValuePtr got = Run(
      "range of S is Students\n"
      "retrieve (S.name) by S.dept.division where S.dept.floor = 5");
  ASSERT_NE(got, nullptr);
  ASSERT_TRUE(got->is_set());

  // Reference: students whose dept floor is 5, grouped by division.
  std::map<std::string, std::vector<ValuePtr>> by_division;
  ValuePtr students = *db_.NamedValue("Students");
  for (const auto& e : students->entries()) {
    ValuePtr s = *db_.store().Deref(e.value->oid());
    ValuePtr dept = *db_.store().Deref((*s->Field("dept"))->oid());
    if ((*dept->Field("floor"))->as_int() != 5) continue;
    by_division[(*dept->Field("division"))->as_string()].push_back(
        *s->Field("name"));
  }
  std::vector<ValuePtr> groups;
  for (auto& [div, names] : by_division) {
    groups.push_back(Value::SetOf(names));
  }
  EXPECT_TRUE(got->Equals(*Value::SetOf(groups))) << got->ToString();
}

TEST_F(SessionTest, GetSsnumMethodFromPaper) {
  // The paper writes the body with implicit per-kid iteration
  // (`this.kids.ssnum where this.kids.name = kname`); our surface form
  // makes the iteration explicit, same semantics.
  Run("define Employee function get_ssnum (kname: char[]) returns int4 {"
      "  retrieve (K.ssnum) from K in this.kids where K.name = kname }");
  ValuePtr emp = EmployeeAt(3);
  ValuePtr kid = (*emp->Field("kids"))->entries()[0].value;
  std::string kname = (*kid->Field("name"))->as_string();
  // Invoke on every employee through the range variable.
  ValuePtr got = Run(StrCat(
      "range of E is Employees retrieve (E.get_ssnum(\"", kname, "\"))"));
  ASSERT_NE(got, nullptr);
  // The kid's employee yields a singleton {ssnum}; everyone else {}.
  ValuePtr hit = Value::SetOf({*kid->Field("ssnum")});
  EXPECT_GE(got->CountOf(hit), 1) << got->ToString();
  EXPECT_GE(got->CountOf(Value::EmptySet()), 1);
}

TEST_F(SessionTest, IntoCreatesNamedObject) {
  Run("retrieve (Employees.salary) where Employees.salary >= 100000 "
      "into RichSalaries");
  ASSERT_TRUE(db_.HasNamed("RichSalaries"));
  ValuePtr stored = *db_.NamedValue("RichSalaries");
  ValuePtr again = Run("retrieve (x) from x in RichSalaries where x >= 100000");
  EXPECT_TRUE(stored->Equals(*again));
  // And `into` an existing object overwrites it.
  Run("retrieve (Employees.salary) into RichSalaries");
  EXPECT_EQ((*db_.NamedValue("RichSalaries"))->TotalCount(),
            params_.num_employees);
}

TEST_F(SessionTest, MultisetOperatorsInFrom) {
  Run("retrieve (Employees.salary) into A");
  Run("retrieve (Employees.salary) where Employees.salary >= 100000 into B");
  ValuePtr diff = Run("retrieve (x) from x in (A - B)");
  ValuePtr expected = Run(
      "retrieve (Employees.salary) where Employees.salary < 100000");
  EXPECT_TRUE(diff->Equals(*expected));
  ValuePtr uni = Run("retrieve (x) from x in (B union A)");
  EXPECT_TRUE(uni->Equals(*Run("retrieve (x) from x in A")));
}

TEST_F(SessionTest, UniqueEliminatesDuplicates) {
  ValuePtr all = Run("retrieve (Employees.dept.name)");
  ValuePtr uniq = Run("retrieve unique (Employees.dept.name)");
  EXPECT_EQ(uniq->TotalCount(), uniq->DistinctCount());
  EXPECT_EQ(uniq->DistinctCount(), all->DistinctCount());
  EXPECT_GT(all->TotalCount(), uniq->TotalCount());
}

TEST_F(SessionTest, ArraySlicing) {
  ValuePtr tail = Run("retrieve (TopTen[8..last])");
  ASSERT_TRUE(tail->is_array());
  EXPECT_EQ(tail->ArrayLength(), 3);
  ValuePtr lastref = Run("retrieve (TopTen[last])");
  EXPECT_TRUE(lastref->is_ref());
  EXPECT_TRUE(tail->elems()[2]->Equals(*lastref));
}

TEST_F(SessionTest, SetAndTupleLiterals) {
  ValuePtr s = Run("retrieve ( {1, 2, 2, 3} )");
  EXPECT_EQ(s->TotalCount(), 4);
  EXPECT_EQ(s->CountOf(Value::Int(2)), 2);
  ValuePtr t = Run("retrieve ( (a: 1, b: \"x\") )");
  ASSERT_TRUE(t->is_tuple());
  EXPECT_EQ((*t->Field("b"))->as_string(), "x");
  ValuePtr arr = Run("retrieve ( [1, 2, 3] )");
  ASSERT_TRUE(arr->is_array());
  EXPECT_EQ(arr->ArrayLength(), 3);
}

TEST_F(SessionTest, CountAggregateOverNamedSet) {
  ValuePtr n = Run("retrieve ( count(Employees) )");
  EXPECT_EQ(n->as_int(), params_.num_employees);
  ValuePtr salaries = Run("retrieve ( max(Employees.salary) )");
  ValuePtr all = Run("retrieve (Employees.salary)");
  int64_t expected = 0;
  for (const auto& e : all->entries()) {
    expected = std::max(expected, e.value->as_int());
  }
  EXPECT_EQ(salaries->as_int(), expected);
}

TEST_F(SessionTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(session_->Execute("retrieve (Nobody.name)").ok());
  EXPECT_FALSE(session_->Execute("retrieve (Employees.bogusfield)").ok());
  EXPECT_FALSE(session_->Execute("retrieve (x) from x in 42").ok());
  EXPECT_FALSE(session_->Execute("create Employees: { int4 }").ok());
  EXPECT_FALSE(session_->Execute("define type Person: (x: int4)").ok());
}

TEST_F(SessionTest, AggregateVariableShadowsSessionRange) {
  // A session-level `range of E` must not collide with (or leak into) an
  // aggregate's own `from E in ...` — the aggregate scopes its variables
  // (§2.2). Regression test for the environment-shadowing fix.
  Run("range of E is Employees retrieve (E.name) where E.dept.floor = 1");
  ValuePtr got = Run(
      "range of EMP is Employees\n"
      "retrieve (EMP.name, min(E.salary from E in Employees\n"
      "                        where E.dept.floor = EMP.dept.floor))");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->TotalCount(), params_.num_employees);
  // And an aggregate variable shadowing an *outer used* variable of the
  // same name resolves innermost.
  ValuePtr shadow = Run(
      "retrieve (E.name, count(E from E in E.kids))"
      " from E in Employees");
  ASSERT_NE(shadow, nullptr);
  for (const auto& row : shadow->entries()) {
    EXPECT_EQ((*row.value->Field("count"))->as_int(), 2);  // kids per emp
  }
}

TEST_F(SessionTest, OptimizedAndUnoptimizedAgree) {
  Session::Options raw;
  raw.optimize = false;
  Session unopt(&db_, registry_.get(), raw);
  const char* q =
      "retrieve (Employees.dept.name) where Employees.city = \"city_1\"";
  auto a = session_->Execute(q);
  auto b = unopt.Execute(q);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE((*a)->Equals(**b));
}

// --- joins from EXCESS source ------------------------------------------------

/// Every operator name in an EXPLAIN plan tree.
void CollectOps(const obs::ExplainNode& n, std::multiset<std::string>* ops) {
  ops->insert(n.op);
  for (const auto& c : n.children) CollectOps(c, ops);
}

class JoinPlanTest : public SessionTest {
 protected:
  void SetUp() override {
    SessionTest::SetUp();
    Run("range of S is Students, E is Employees");
  }

  /// Operators of the plan the session would run for `query`.
  std::multiset<std::string> PhysicalOps(const std::string& query) {
    std::multiset<std::string> ops;
    auto r = session_->Execute("explain " + query);
    EXPECT_TRUE(r.ok()) << r.status().ToString() << "\nquery: " << query;
    if (r.ok()) CollectOps(session_->last_explain()->physical, &ops);
    return ops;
  }

  bool HasJoin(const std::multiset<std::string>& ops) {
    return ops.count("HASH_JOIN") + ops.count("IDX_JOIN") > 0;
  }
};

TEST_F(JoinPlanTest, TranslatedJoinsLowerToPhysicalJoins) {
  const char* joins[] = {
      // join-report's join statements (bench_optimizer join-two-vars is
      // the first) and the server bench's self-join inside an aggregate.
      "retrieve (S.name, E.name) where S.advisor = E and E.salary >= 100000",
      "retrieve (S.name, E.name) where S.advisor = E and E.salary >= 50000",
      "retrieve unique (S.dept.name, E.name) by S.dept "
      "where S.advisor.name = E.name",
      "retrieve ( count(p from x in Nums, p in Nums where x = p) )",
  };
  Run("create Nums: { int4 }");
  Run("append all {1, 2, 3, 3, 4} to Nums");
  for (const char* q : joins) {
    auto ops = PhysicalOps(q);
    EXPECT_TRUE(HasJoin(ops)) << q;
    EXPECT_EQ(ops.count("CROSS"), 0u) << q;
    EXPECT_EQ(ops.count("SET_COLLAPSE"), 0u) << q;
  }
}

TEST_F(JoinPlanTest, LookupsAndDependentRangesKeepTheirPlans) {
  Run("create index ssn on Employees (ssnum) using hash");
  auto lookup = PhysicalOps("retrieve (E.name) where E.ssnum = 100003");
  EXPECT_EQ(lookup.count("IDX_PROBE"), 1u);
  // C ranges over each employee's own kids: that product depends on the
  // environment and is not decorrelated.
  auto kids = PhysicalOps(
      "retrieve (C.name) from C in E.kids where E.dept.floor = 2");
  EXPECT_FALSE(HasJoin(kids));
  EXPECT_EQ(kids.count("SET_COLLAPSE"), 1u);
}

/// The first IDX_PROBE node of an EXPLAIN plan tree, or null.
const obs::ExplainNode* FindProbe(const obs::ExplainNode& n) {
  if (n.op == "IDX_PROBE") return &n;
  for (const auto& c : n.children) {
    if (const obs::ExplainNode* p = FindProbe(c)) return p;
  }
  return nullptr;
}

TEST_F(JoinPlanTest, TwoSidedRangesLowerToOneIntervalProbe) {
  Run("create index emp_ssnum on Employees (ssnum) using hash");
  Run("create index emp_salary on Employees (salary) using ordered");
  Session::Options raw;
  raw.optimize = false;
  Session unopt(&db_, registry_.get(), raw);
  ASSERT_TRUE(unopt.Execute("range of E is Employees").ok());
  struct Case {
    const char* where;
    const char* index;
    size_t bounds;  // probe children of the IDX_PROBE
  };
  const Case cases[] = {
      {"E.salary >= 60000 and E.salary <= 90000", "emp_salary", 2},
      // Mirrored operands.
      {"60000 <= E.salary and 90000 >= E.salary", "emp_salary", 2},
      // Strict bounds, upper bound first.
      {"E.salary < 90000 and E.salary > 60000", "emp_salary", 2},
      // A third conjunct riding along.
      {"E.salary >= 60000 and E.name != \"x\" and E.salary <= 90000",
       "emp_salary", 2},
      // One bound keeps the one-bound probe; equality keeps the hash probe.
      {"E.salary >= 140000", "emp_salary", 1},
      {"E.ssnum = 100003", "emp_ssnum", 1},
  };
  for (const Case& c : cases) {
    const std::string q =
        std::string("retrieve (E.name, E.salary) where ") + c.where;
    auto r = session_->Execute("explain " + q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const obs::ExplainNode* probe =
        FindProbe(session_->last_explain()->physical);
    ASSERT_NE(probe, nullptr) << q;
    EXPECT_NE(probe->detail.find(std::string("idx=") + c.index),
              std::string::npos)
        << q << "\n" << probe->detail;
    size_t bounds = 0;
    for (const auto& child : probe->children) bounds += child.role == "probe";
    EXPECT_EQ(bounds, c.bounds) << q;
    auto want = unopt.Execute(q);
    ValuePtr got = Run(q);
    ASSERT_TRUE(want.ok() && got != nullptr) << q;
    EXPECT_TRUE((*want)->Equals(*got)) << q;
  }
}

TEST_F(JoinPlanTest, RowsRenderInTargetOrderWithOrWithoutOptimization) {
  Session::Options raw;
  raw.optimize = false;
  Session unopt(&db_, registry_.get(), raw);
  ASSERT_TRUE(unopt.Execute("range of S is Students, E is Employees").ok());
  Run("retrieve ({(k: 1, v: 10), (k: 2, v: 20), (k: 2, v: 21)}) into Ps");
  Run("retrieve ({(k: 2, v: 5), (k: 3, v: 6)}) into Qs");
  const char* queries[] = {
      // The optimized plan builds these rows as (m, z, a).
      "retrieve (z: Q.v, a: P.v, m: P.k) from P in Ps, Q in Qs "
      "where P.k = Q.k",
      "retrieve (S.name, E.name) where S.advisor = E and E.salary >= 100000",
      "retrieve (S.name, E.name, S.gpa) where S.advisor = E",
      "retrieve unique (E.name, S.dept.name) by S.dept where S.advisor = E",
  };
  // Rows of a result, each rendered, in a canonical (sorted) order: plans
  // may emit rows in any order, but each row's columns must follow the
  // target list.
  auto rows = [](const ValuePtr& v) {
    std::vector<std::string> out;
    for (const auto& e : v->entries()) {
      if (e.value->is_set()) {
        for (const auto& g : e.value->entries()) {
          out.push_back(g.value->ToString());
        }
      } else {
        out.push_back(e.value->ToString());
      }
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (const char* q : queries) {
    ValuePtr opt = Run(q);
    auto plain = unopt.Execute(q);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_NE(opt, nullptr);
    EXPECT_FALSE(rows(opt).empty()) << q;
    EXPECT_EQ(rows(opt), rows(*plain)) << q;
  }
}

}  // namespace
}  // namespace excess
