// Workload specifications, statement streams, the oracle and deployment.

#include <filesystem>
#include <thread>

#include "bench.h"
#include "excess/session.h"
#include "server/client.h"
#include "university/university.h"

namespace perfbench {

using excess::Result;
using excess::Status;

bool SpecFor(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "point-lookup") {
    s.employees = 5000;
    s.students = 10000;
    s.departments = 50;
    s.readers = 4;
    s.setup_reps = 3;
  } else if (name == "join-report") {
    s.employees = 200;
    s.students = 300;
    s.departments = 20;
    s.readers = 1;
    s.join_report = true;
    s.setup_reps = 5;
  } else if (name == "commit-mix") {
    s.employees = 5000;
    s.students = 10000;
    s.departments = 50;
    s.readers = 3;
    s.commit_rate = 2;
    s.setup_reps = 3;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

const std::vector<PaperQuery>& JoinReportQueries() {
  static const std::vector<PaperQuery> kQueries = {
      // Two-variable equi-join on identity with a salary filter, at two
      // selectivities. Seven statements a round put the median statement
      // inside one query class instead of on the gap between two.
      {"join-two-vars", 100000,
       "retrieve (S.name, E.name) where S.advisor = E and "
       "E.salary >= 100000"},
      {"join-two-vars-wide", 50000,
       "retrieve (S.name, E.name) where S.advisor = E and "
       "E.salary >= 50000"},
      // §5 Example 1 (Figs 6-8): grouped unique join. The fixture keeps
      // advisor as a reference, so the join compares the advisor's name.
      {"ex1-grouped-join", -1,
       "retrieve unique (S.dept.name, E.name) by S.dept "
       "where S.advisor.name = E.name"},
      // §5 Example 2 (Figs 9-11): grouped selection.
      {"ex2-grouped-division", -1,
       "retrieve (S.name) by S.dept.division where S.dept.floor = 1"},
      {"kids-collapse", -1,
       "retrieve (C.name) from C in E.kids where E.dept.floor = 2"},
      {"count-kids", -1, "retrieve (E.name, count(E.kids))"},
      // §3.3 Example 2 (Fig 4): functional join through the dept ref.
      {"fig4-functional-join", -1,
       "retrieve (Employees.dept.name) where Employees.city = \"city_0\""},
  };
  return kQueries;
}

OpStream::OpStream(const WorkloadSpec& spec, uint64_t seed, uint64_t stream)
    : spec_(spec), rng_(seed * 0x9E3779B97F4A7C15ull + stream * 7919 + 1) {}

Op OpStream::Next() {
  Op op;
  const uint64_t i = i_++;
  if (spec_.join_report) {
    const auto& qs = JoinReportQueries();
    op.kind = Op::kJoin;
    op.a = static_cast<int64_t>(i % qs.size());
    op.text = qs[op.a].source;
    return op;
  }
  // Three equality lookups to one range: the median statement is an
  // equality lookup, the tail is made of ranges.
  if (i % 4 != 3) {
    std::uniform_int_distribution<int64_t> key(0, spec_.employees - 1);
    op.kind = Op::kSsnum;
    op.a = 100000 + key(rng_);
    op.text = "retrieve (E.name, E.salary) where E.ssnum = " +
              std::to_string(op.a);
  } else {
    // Salaries are drawn from [30000, 150000] by the fixture generator.
    std::uniform_int_distribution<int64_t> lo(30000, 150000 - kSalaryWidth);
    op.kind = Op::kSalary;
    op.a = lo(rng_);
    op.b = op.a + kSalaryWidth - 1;
    op.text = "retrieve (E.name, E.salary) where E.salary >= " +
              std::to_string(op.a) + " and E.salary <= " +
              std::to_string(op.b);
  }
  return op;
}

namespace {

std::string Row(const std::string& name, int64_t salary) {
  return "(name: \"" + name + "\", salary: " + std::to_string(salary) + ")";
}

Result<excess::ValuePtr> DerefField(const excess::Database& db,
                                    const excess::ValuePtr& ref,
                                    const std::string& field) {
  EXA_ASSIGN_OR_RETURN(excess::ValuePtr v, db.store().Deref(ref->oid()));
  return v->Field(field);
}

}  // namespace

Status Oracle::Build(const WorkloadSpec& spec, excess::Database* db,
                     excess::MethodRegistry* methods) {
  EXA_ASSIGN_OR_RETURN(excess::ValuePtr emps, db->NamedValue("Employees"));
  for (const auto& e : emps->entries()) {
    EXA_ASSIGN_OR_RETURN(excess::ValuePtr emp,
                         db->store().Deref(e.value->oid()));
    EXA_ASSIGN_OR_RETURN(excess::ValuePtr ssnum, emp->Field("ssnum"));
    EXA_ASSIGN_OR_RETURN(excess::ValuePtr name, emp->Field("name"));
    EXA_ASSIGN_OR_RETURN(excess::ValuePtr salary, emp->Field("salary"));
    by_ssnum_[ssnum->as_int()] = {name->as_string(), salary->as_int()};
    by_salary_.emplace(salary->as_int(), name->as_string());
  }
  if (!spec.join_report) return Status::OK();

  excess::Session::Options opts;
  opts.optimize = false;
  opts.env_autoopen = false;
  excess::Session raw(db, methods, opts);
  EXA_RETURN_NOT_OK(raw.Execute(kRanges).status());
  for (const PaperQuery& q : JoinReportQueries()) {
    EXA_ASSIGN_OR_RETURN(excess::ValuePtr v, raw.Execute(q.source));
    std::optional<std::string> c = Canonical(v->ToString());
    if (!c) return Status::Internal(std::string("unreadable answer: ") + q.name);
    join_answers_.push_back(*c);
    if (q.join_floor >= 0) {
      // Count the pairs straight from the fixture: each student joins its
      // advisor when the advisor earns at least the floor.
      EXA_ASSIGN_OR_RETURN(excess::ValuePtr studs, db->NamedValue("Students"));
      int64_t pairs = 0;
      for (const auto& s : studs->entries()) {
        EXA_ASSIGN_OR_RETURN(excess::ValuePtr adv,
                             DerefField(*db, s.value, "advisor"));
        if (adv->kind() != excess::ValueKind::kRef) continue;
        EXA_ASSIGN_OR_RETURN(excess::ValuePtr sal,
                             DerefField(*db, adv, "salary"));
        if (sal->as_int() >= q.join_floor) pairs += s.count;
      }
      if (v->TotalCount() != pairs) {
        return Status::Internal(std::string(q.name) +
                                ": unoptimized translation has " +
                                std::to_string(v->TotalCount()) +
                                " rows, the fixture has " +
                                std::to_string(pairs) + " pairs");
      }
    }
  }
  return Status::OK();
}

std::string Oracle::Expected(const Op& op) const {
  std::string text = "{";
  bool first = true;
  auto add = [&](const std::string& name, int64_t salary) {
    if (!first) text += ", ";
    first = false;
    text += Row(name, salary);
  };
  switch (op.kind) {
    case Op::kJoin:
      return join_answers_[op.a];
    case Op::kSsnum: {
      auto it = by_ssnum_.find(op.a);
      if (it != by_ssnum_.end()) add(it->second.first, it->second.second);
      break;
    }
    case Op::kSalary:
      for (auto it = by_salary_.lower_bound(op.a);
           it != by_salary_.end() && it->first <= op.b; ++it) {
        add(it->second, it->first);
      }
      break;
  }
  return Canonical(text + "}").value_or("");
}

Status Deploy(const WorkloadSpec& spec, uint64_t seed, const std::string& dir,
              int clients, Deployment* out) {
  namespace fs = std::filesystem;
  Deployment d;
  d.db_path = dir + "/fixture.exdb";
  d.sock_path = "srv.sock";  // relative: unix socket paths are short
  std::error_code ec;
  fs::remove(d.db_path, ec);
  fs::remove(d.db_path + ".wal", ec);

  const auto t0 = Clock::now();
  d.db = std::make_unique<excess::Database>();
  d.methods = std::make_unique<excess::MethodRegistry>(&d.db->catalog());
  excess::UniversityParams p;
  p.num_employees = spec.employees;
  p.num_students = spec.students;
  p.num_departments = spec.departments;
  p.seed = static_cast<uint32_t>(seed);
  EXA_RETURN_NOT_OK(excess::BuildUniversity(d.db.get(), p));
  const auto t1 = Clock::now();
  EXA_RETURN_NOT_OK(d.db->CreateIndex(
      {"emp_ssnum", "Employees", {"ssnum"}, excess::IndexKind::kHash}));
  EXA_RETURN_NOT_OK(d.db->CreateIndex(
      {"emp_salary", "Employees", {"salary"}, excess::IndexKind::kOrdered}));
  const auto t2 = Clock::now();
  {
    excess::Session::Options opts;
    opts.env_autoopen = false;
    excess::Session s(d.db.get(), d.methods.get(), opts);
    EXA_RETURN_NOT_OK(s.Execute(kRanges).status());
    EXA_RETURN_NOT_OK(s.Execute(kSideCreate).status());
    EXA_RETURN_NOT_OK(s.OpenStorage(d.db_path));
  }
  const auto t3 = Clock::now();
  excess::server::ServerOptions so;
  so.unix_path = d.sock_path;
  so.db_path = d.db_path;
  d.server = std::make_unique<excess::server::Server>(so);
  EXA_RETURN_NOT_OK(d.server->Start());
  const auto t4 = Clock::now();

  // Warm-up: every connection the workload will open runs a few indexed
  // lookups at once, so each worker materializes the epoch before timing.
  std::vector<std::thread> threads;
  std::vector<Status> st(clients, Status::OK());
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = excess::server::Client::ConnectUnix(d.sock_path, 30'000);
      if (!client.ok()) {
        st[c] = client.status();
        return;
      }
      for (int i = 0; i < 8; ++i) {
        auto r = client->Execute("retrieve (E.name) where E.ssnum = " +
                                 std::to_string(100000 + c * 8 + i));
        if (!r.ok()) {
          st[c] = r.status();
          return;
        }
        if (r->code != excess::StatusCode::kOk) {
          st[c] = Status::Internal("warm-up statement failed: " + r->message);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& s : st) EXA_RETURN_NOT_OK(s);
  const auto t5 = Clock::now();

  d.times.fixture_ms = MsBetween(t0, t1);
  d.times.index_build_ms = MsBetween(t1, t2);
  d.times.snapshot_ms = MsBetween(t2, t3);
  d.times.start_ms = MsBetween(t3, t4);
  d.times.warmup_ms = MsBetween(t4, t5);
  d.times.total_s = MsBetween(t0, t5) / 1e3;
  *out = std::move(d);
  return Status::OK();
}

}  // namespace perfbench
