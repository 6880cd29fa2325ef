// Per-layer probes of the traced run. Every number comes from the
// benchmark's own calls into a layer's public functions; nothing under
// src/ is instrumented.

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "core/cost.h"
#include "core/eval.h"
#include "core/governor.h"
#include "core/physical.h"
#include "core/planner.h"
#include "excess/parser.h"
#include "excess/session.h"
#include "excess/translate.h"
#include "server/client.h"
#include "server/epoch.h"
#include "storage/engine.h"

namespace perfbench {

using excess::ExprPtr;
using excess::Result;
using excess::Status;
using excess::ValuePtr;

namespace {

/// Counts the nodes of `kinds` in a plan, subscripts and predicates
/// included.
int64_t CountKinds(const ExprPtr& e, std::initializer_list<excess::OpKind> kinds);

int64_t CountPred(const excess::PredicatePtr& p,
                  std::initializer_list<excess::OpKind> kinds) {
  if (p == nullptr) return 0;
  return CountKinds(p->lhs, kinds) + CountKinds(p->rhs, kinds) +
         CountPred(p->a, kinds) + CountPred(p->b, kinds);
}

int64_t CountKinds(const ExprPtr& e,
                   std::initializer_list<excess::OpKind> kinds) {
  if (e == nullptr) return 0;
  int64_t n = 0;
  for (excess::OpKind k : kinds) n += e->kind() == k ? 1 : 0;
  for (const ExprPtr& c : e->children()) n += CountKinds(c, kinds);
  return n + CountKinds(e->sub(), kinds) + CountPred(e->pred(), kinds);
}

}  // namespace

Status ReplayLayers(excess::Database* db, excess::MethodRegistry* methods,
                    const std::vector<Op>& sample, Tracer* tracer,
                    LayerMetrics* out) {
  excess::Session::Options sopts;
  sopts.env_autoopen = false;
  excess::Session session(db, methods, sopts);
  EXA_RETURN_NOT_OK(session.Execute(kRanges).status());
  excess::Translator translator(db, methods);
  // The session's planner options (defaults; the EXCESS_* knobs are
  // cleared), split into the rewrite phase and the lowering pass.
  const excess::Planner::Options lowered;
  excess::Planner::Options logical = lowered;
  logical.lower_physical = false;
  const excess::CostModel cost(db, lowered.cost_params);

  double parse = 0, translate = 0, rewrite = 0, lower = 0, eval = 0,
         sess = 0;
  int64_t joins = 0, probes = 0, probe_stmts = 0;
  double occurrences = 0, rows = 0;
  std::vector<double> qerror;
  for (size_t i = 0; i < sample.size(); ++i) {
    const Op& op = sample[i];
    const uint64_t stmt_id = i + 1;
    ScopedSpan stmt(tracer, "statement", 0, stmt_id);

    auto t = Clock::now();
    Result<excess::Statement> parsed = Status::Internal("unparsed");
    {
      ScopedSpan s(tracer, "excess.parse", stmt.id(), stmt_id);
      parsed = excess::ParseStatement(op.text);
    }
    parse += UsBetween(t, Clock::now());
    EXA_RETURN_NOT_OK(parsed.status());
    if (parsed->kind != excess::Statement::Kind::kRetrieve) {
      return Status::Invalid("layer replay expects retrieve statements");
    }

    t = Clock::now();
    Result<ExprPtr> tree = Status::Internal("untranslated");
    {
      ScopedSpan s(tracer, "excess.translate", stmt.id(), stmt_id);
      tree = translator.TranslateRetrieve(*parsed->retrieve, session.ranges());
    }
    translate += UsBetween(t, Clock::now());
    EXA_RETURN_NOT_OK(tree.status());

    t = Clock::now();
    Result<ExprPtr> plan = Status::Internal("unplanned");
    {
      ScopedSpan s(tracer, "core.rewrite", stmt.id(), stmt_id);
      plan = excess::Planner(db, logical).Optimize(*tree);
    }
    rewrite += UsBetween(t, Clock::now());
    EXA_RETURN_NOT_OK(plan.status());

    t = Clock::now();
    ExprPtr physical;
    {
      ScopedSpan s(tracer, "core.lower", stmt.id(), stmt_id);
      physical = excess::LowerPhysical(*plan, db, lowered.cost_params);
    }
    lower += UsBetween(t, Clock::now());

    excess::Evaluator ev(db, methods);
    excess::Governor governor(excess::ExecLimits::FromEnv());
    ev.set_governor(&governor);
    t = Clock::now();
    Result<ValuePtr> value = Status::Internal("unevaluated");
    {
      ScopedSpan s(tracer, "core.eval", stmt.id(), stmt_id);
      value = ev.Eval(physical);
    }
    eval += UsBetween(t, Clock::now());
    EXA_RETURN_NOT_OK(value.status());

    t = Clock::now();
    Result<ValuePtr> whole = Status::Internal("unexecuted");
    {
      ScopedSpan s(tracer, "excess.session", stmt.id(), stmt_id);
      whole = session.Execute(op.text);
    }
    sess += UsBetween(t, Clock::now());
    EXA_RETURN_NOT_OK(whole.status());

    // Decomposition self-check: the split path is the session's path.
    EXA_ASSIGN_OR_RETURN(ExprPtr planner_plan,
                         excess::Planner(db, lowered).Optimize(*tree));
    if (!planner_plan->Equals(physical)) {
      return Status::Internal("decomposition: Planner then LowerPhysical "
                              "differs from the lowering Planner for: " +
                              op.text);
    }
    if (!(*value)->Equals(**whole)) {
      return Status::Internal("decomposition: split-path value differs from "
                              "Session::Execute for: " + op.text);
    }

    joins += CountKinds(physical, {excess::OpKind::kHashJoin,
                                   excess::OpKind::kIndexJoin});
    const int64_t p = CountKinds(physical, {excess::OpKind::kIndexProbe});
    probes += p;
    probe_stmts += op.kind == Op::kJoin ? 0 : 1;
    const double act =
        (*value)->is_set() ? static_cast<double>((*value)->TotalCount()) : 1.0;
    EXA_ASSIGN_OR_RETURN(excess::CostEstimate est, cost.Estimate(physical));
    const double e = std::max(est.cardinality, 1.0);
    const double a = std::max(act, 1.0);
    qerror.push_back(std::max(e / a, a / e));
    occurrences += static_cast<double>(ev.stats().TotalOccurrences());
    rows += std::max(act, 1.0);
  }

  const double n = static_cast<double>(sample.size());
  const double stages = parse + translate + rewrite + lower + eval;
  if (std::fabs(stages - sess) > kDecompositionTolerance * sess) {
    return Status::Internal(
        "decomposition: stages sum to " + std::to_string(stages / n) +
        " us per statement, Session::Execute takes " +
        std::to_string(sess / n) + " us");
  }
  (*out)["excess.parse_us"] = {parse / n, "us"};
  (*out)["excess.translate_us"] = {translate / n, "us"};
  (*out)["excess.session_us"] = {sess / n, "us"};
  (*out)["core.rewrite_us"] = {rewrite / n, "us"};
  (*out)["core.lower_us"] = {lower / n, "us"};
  (*out)["core.eval_us"] = {eval / n, "us"};
  (*out)["core.plan.physical_joins"] = {static_cast<double>(joins), "count"};
  (*out)["core.plan.index_probes"] = {
      probe_stmts == 0 ? 0.0 : static_cast<double>(probes) / probe_stmts,
      "count"};
  (*out)["core.cost.qerror"] = {Median(qerror), "ratio"};
  (*out)["core.eval.occurrences"] = {occurrences / n, "count"};
  (*out)["core.eval.occurrences_per_row"] = {occurrences / rows, "ratio"};
  std::printf("decomposition: stages sum to %.4f of Session::Execute "
              "(tolerance %.2f)\n",
              stages / sess, kDecompositionTolerance);
  return Status::OK();
}

Status ProbeWire(const Deployment& d, Tracer* tracer, LayerMetrics* out) {
  EXA_ASSIGN_OR_RETURN(excess::server::Client client,
                       excess::server::Client::ConnectUnix(d.sock_path, 60'000));
  std::vector<double> rtt;
  for (int i = 0; i < 200; ++i) {
    ScopedSpan s(tracer, "server.ping");
    const auto t0 = Clock::now();
    EXA_RETURN_NOT_OK(client.Ping().status());
    rtt.push_back(UsBetween(t0, Clock::now()));
  }
  std::vector<double> rac;
  for (int i = 0; i < 5; ++i) {
    auto w = client.Execute("append " + std::to_string(-1 - i) + " to Side");
    if (!w.ok() || w->code != excess::StatusCode::kOk) {
      return Status::Internal("probe commit failed");
    }
    ScopedSpan s(tracer, "server.read_after_commit");
    const auto t0 = Clock::now();
    auto r = client.Execute("retrieve (E.name) where E.ssnum = 100000");
    rac.push_back(MsBetween(t0, Clock::now()));
    if (!r.ok() || r->code != excess::StatusCode::kOk || r->epoch < w->epoch) {
      return Status::Internal("probe read after commit failed");
    }
  }
  (*out)["server.wire_rtt_us"] = {Median(rtt), "us"};
  (*out)["server.read_after_commit_ms"] = {Median(rac), "ms"};
  return Status::OK();
}

Status ProbeEpochs(const excess::Database& db,
                   const excess::MethodRegistry& methods, Tracer* tracer,
                   LayerMetrics* out) {
  constexpr int kReps = 5;
  // CaptureEpoch reads the range bindings from the writer session.
  excess::Database scratch;
  excess::MethodRegistry scratch_methods(&scratch.catalog());
  excess::Session::Options sopts;
  sopts.env_autoopen = false;
  excess::Session writer(&scratch, &scratch_methods, sopts);
  std::vector<double> capture, materialize;
  for (int r = 0; r < kReps; ++r) {
    auto t = Clock::now();
    std::shared_ptr<const excess::server::EpochSnapshot> snap;
    {
      ScopedSpan s(tracer, "server.epoch_capture");
      snap = excess::server::CaptureEpoch(r + 1, db, writer, methods);
    }
    capture.push_back(MsBetween(t, Clock::now()));

    excess::Database clone;
    excess::MethodRegistry clone_methods(&clone.catalog());
    std::vector<std::pair<std::string, excess::ExprAstPtr>> ranges;
    t = Clock::now();
    {
      ScopedSpan s(tracer, "server.epoch_materialize");
      EXA_RETURN_NOT_OK(excess::server::MaterializeEpoch(
          *snap, &clone, &clone_methods, &ranges));
    }
    materialize.push_back(MsBetween(t, Clock::now()));
  }
  (*out)["server.epoch_capture_ms"] = {Median(capture), "ms"};
  (*out)["server.epoch_materialize_ms"] = {Median(materialize), "ms"};
  return Status::OK();
}

Status ProbeStorage(const std::string& dir, const std::string& snapshot_copy,
                    Tracer* tracer, LayerMetrics* out) {
  namespace fs = std::filesystem;
  constexpr int kCommits = 40;
  constexpr int kOpens = 3;
  // Sessions read EXCESS_WAL_FSYNC / EXCESS_GROUP_COMMIT; with the knobs
  // cleared both are on, which is what these defaults are.
  const excess::storage::StorageOptions opts;

  excess::Database empty;
  const std::string wal_db = dir + "/probe.exdb";
  EXA_ASSIGN_OR_RETURN(excess::storage::StorageEngine::Opened opened,
                       excess::storage::StorageEngine::Open(wal_db, &empty,
                                                            {kSideCreate},
                                                            opts));
  const auto wal_before = fs::file_size(opened.engine->wal_path());
  std::vector<double> commit_us;
  for (int i = 0; i < kCommits; ++i) {
    std::vector<excess::storage::StagedStatement> group = {
        {"append " + std::to_string(i + 1) + " to Side", true, false}};
    const std::string token = "probe-" + std::to_string(i);
    auto t = Clock::now();
    {
      ScopedSpan s(tracer, "storage.log_commit");
      EXA_RETURN_NOT_OK(opened.engine->LogCommitGroup(group, token));
    }
    commit_us.push_back(UsBetween(t, Clock::now()));
  }
  const auto wal_after = fs::file_size(opened.engine->wal_path());

  std::vector<double> open_ms;
  for (int r = 0; r < kOpens; ++r) {
    excess::Database db;
    auto t = Clock::now();
    {
      ScopedSpan s(tracer, "storage.open");
      EXA_RETURN_NOT_OK(
          excess::storage::StorageEngine::Open(snapshot_copy, &db, {}, opts)
              .status());
    }
    open_ms.push_back(MsBetween(t, Clock::now()));
  }
  (*out)["storage.log_commit_us"] = {Median(commit_us), "us"};
  (*out)["storage.wal_bytes_per_commit"] = {
      static_cast<double>(wal_after - wal_before) / kCommits, "bytes"};
  (*out)["storage.open_ms"] = {Median(open_ms), "ms"};
  (*out)["storage.snapshot_bytes"] = {
      static_cast<double>(fs::file_size(snapshot_copy)), "bytes"};
  return Status::OK();
}

}  // namespace perfbench
