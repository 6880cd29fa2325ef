// End-to-end optimizer evaluation (§6: the algebra and rules as the basis
// of an EXODUS-generated optimizer). For a suite of EXCESS queries over the
// Figure 1 database: translation, heuristic + cost-based optimization,
// estimated costs, planning time, and the realized execution speedup.

#include <cstdio>
#include <string>

#include "bench/support.h"
#include "core/planner.h"
#include "excess/session.h"
#include "methods/registry.h"

namespace excess {
namespace bench {
namespace {

struct QueryCase {
  const char* name;
  const char* source;
};

const QueryCase kSuite[] = {
    {"fig4-functional-join",
     "retrieve (Employees.dept.name) where Employees.city = \"city_0\""},
    {"selective-scan",
     "retrieve (Employees.name) where Employees.salary >= 140000"},
    {"grouped-division",
     "range of S is Students "
     "retrieve (S.name) by S.dept.division where S.dept.floor = 1"},
    {"unique-projection", "retrieve unique (Employees.jobtitle)"},
    {"kids-collapse",
     "range of E is Employees retrieve (C.name) from C in E.kids "
     "where E.dept.floor = 2"},
    {"join-two-vars",
     "range of S is Students, E is Employees "
     "retrieve (S.name, E.name) where S.advisor = E and "
     "E.salary >= 100000"},
    {"aggregate-per-employee",
     "range of E is Employees retrieve (E.name, count(E.kids))"},
    {"array-head", "retrieve (TopTen[1].salary, TopTen[2].salary)"},
};

/// The physical join operator the lowering chose ("-" when none): the
/// first HASH_JOIN or IDX_JOIN found in the plan.
const char* LoweredJoin(const ExprPtr& e) {
  if (e->kind() == OpKind::kHashJoin || e->kind() == OpKind::kIndexJoin) {
    return OpKindToString(e->kind());
  }
  for (const auto& c : e->children()) {
    const char* found = LoweredJoin(c);
    if (found[0] != '-') return found;
  }
  return e->sub() != nullptr ? LoweredJoin(e->sub()) : "-";
}

void Run() {
  Database db;
  UniversityParams p;
  // Sized so the worst raw plan (the two-variable join's full cross
  // product) still finishes in seconds.
  p.num_employees = 300;
  p.num_students = 450;
  p.num_departments = 20;
  if (!BuildUniversity(&db, p).ok()) std::abort();
  MethodRegistry methods(&db.catalog());

  std::printf("=== Optimizer end-to-end (suite of EXCESS queries) ===\n\n");
  double join_speedup = 0;
  std::printf("%-24s | %10s %10s | %9s | %10s %10s %8s | %s\n", "query",
              "est before", "est after", "plan ms", "raw ms", "opt ms",
              "speedup", "join");

  for (const auto& q : kSuite) {
    Session session(&db, &methods);
    auto tree = session.Translate(q.source);
    if (!tree.ok()) {
      // Multi-statement inputs (with ranges) need full execution paths.
      Session s2(&db, &methods);
      // Split: execute everything but keep the final retrieve's tree by
      // running the ranges first.
      std::string src(q.source);
      size_t pos = src.find("retrieve");
      if (pos == std::string::npos || pos == 0) {
        std::printf("%-24s | translation failed: %s\n", q.name,
                    tree.status().ToString().c_str());
        continue;
      }
      auto pre = s2.Execute(src.substr(0, pos));
      if (!pre.ok()) {
        std::printf("%-24s | %s\n", q.name, pre.status().ToString().c_str());
        continue;
      }
      tree = s2.Translate(src.substr(pos));
      if (!tree.ok()) {
        std::printf("%-24s | %s\n", q.name, tree.status().ToString().c_str());
        continue;
      }
    }

    CostModel cost(&db);
    auto before = cost.Estimate(*tree);
    Planner::Options opts;
    opts.search_budget = 48;
    Planner planner(&db, opts);
    ExprPtr optimized;
    double plan_ms = TimeMs(
        [&] {
          auto r = planner.Optimize(*tree);
          if (!r.ok()) std::abort();
          optimized = *r;
        },
        1);
    auto after = cost.Estimate(optimized);

    Evaluator check_raw(&db);
    Evaluator check_opt(&db);
    auto va = check_raw.Eval(*tree);
    auto vb = check_opt.Eval(optimized);
    if (!va.ok() || !vb.ok() || !(*va)->Equals(**vb)) {
      std::printf("%-24s | OPTIMIZED PLAN DISAGREES\n", q.name);
      continue;
    }
    double raw_ms = TimeMs([&] { MustEval(&db, *tree); });
    double opt_ms = TimeMs([&] { MustEval(&db, optimized); });
    std::printf(
        "%-24s | %10.0f %10.0f | %9.2f | %10.3f %10.3f %7.2fx | %s\n",
        q.name, before.ok() ? before->total : -1,
        after.ok() ? after->total : -1, plan_ms, raw_ms, opt_ms,
        raw_ms / opt_ms, LoweredJoin(optimized));
    if (std::string(q.name) == "join-two-vars") join_speedup = raw_ms / opt_ms;
  }
  // The two-variable join translated from EXCESS is targeted at >= 20x.
  std::printf("\njoin-two-vars: %.1fx over the raw plan (target >= 20x: %s)\n",
              join_speedup, join_speedup >= 20 ? "met" : "NOT met");

  std::printf(
      "\nNotes: 'est' is the cost model's abstract occurrence-touch count;\n"
      "raw plans come straight from the EXCESS translator (the paper's\n"
      "initial query trees), optimized plans from the heuristic fixpoint\n"
      "plus best-first rule search. Correctness of every optimized plan is\n"
      "re-checked against the raw plan before timing.\n");
}

}  // namespace
}  // namespace bench
}  // namespace excess

int main() {
  excess::bench::Run();
  return 0;
}
