#include "check/faultinject.h"

#include <utility>

#include "check/oracle.h"
#include "core/eval.h"
#include "core/parallel.h"
#include "core/physical.h"
#include "util/string_util.h"

namespace excess {
namespace check {

Status FaultInjector::OnCheckpoint() {
  int64_t n = checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
  switch (mode_) {
    case Mode::kCancelAt:
      if (n == fire_at_) {
        fired_.store(true, std::memory_order_relaxed);
        // Fire the shared token too, so sibling workers observe the
        // cancellation through the governor's normal poll, not just the
        // hook — exactly what an external Cancel() mid-query looks like.
        if (token_ != nullptr) token_->Cancel();
        return Status::Cancelled(
            StrCat("fault injection: cancelled at checkpoint ", n));
      }
      break;
    case Mode::kWorkerKill:
      if (WorkerPool::InBatch()) {
        int64_t b = batch_checkpoints_.fetch_add(1, std::memory_order_relaxed) + 1;
        if (b == fire_at_) {
          fired_.store(true, std::memory_order_relaxed);
          return Status::Cancelled(
              StrCat("fault injection: worker batch killed at checkpoint ", b));
        }
      }
      break;
    case Mode::kNone:
    case Mode::kAllocFail:
      break;
  }
  return Status::OK();
}

Status FaultInjector::OnCharge(int64_t bytes) {
  (void)bytes;
  int64_t n = charges_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (mode_ == Mode::kAllocFail && n == fire_at_) {
    fired_.store(true, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        StrCat("fault injection: allocation ", n, " failed"));
  }
  return Status::OK();
}

namespace {

constexpr uint64_t kFaultSalt = 0x6661756c74ull;  // "fault"
constexpr int kPlansPerSeed = 4;

Divergence MakeFaultDivergence(std::string detail, uint64_t seed,
                               const ExprPtr& plan, std::string message) {
  Divergence d;
  d.oracle = "fault";
  d.detail = std::move(detail);
  d.seed = seed;
  d.before_tree = plan ? plan->ToTreeString() : "";
  d.message = std::move(message);
  return d;
}

/// Geometric fault-point schedule over [1, total]: 1, 2, 4, ... plus the
/// final event itself (the boundary where the fault fires after all real
/// work). Linear sweeps would make the harness quadratic in plan size.
std::vector<int64_t> SweepPoints(int64_t total) {
  std::vector<int64_t> pts;
  for (int64_t k = 1; k < total; k *= 2) pts.push_back(k);
  if (total > 0) pts.push_back(total);
  return pts;
}

const char* ModeName(FaultInjector::Mode m) {
  switch (m) {
    case FaultInjector::Mode::kAllocFail:
      return "alloc-fail";
    case FaultInjector::Mode::kCancelAt:
      return "cancel-at";
    case FaultInjector::Mode::kWorkerKill:
      return "worker-kill";
    case FaultInjector::Mode::kNone:
      break;
  }
  return "none";
}

}  // namespace

Status CheckFaultSeed(uint64_t seed, const GenOptions& opts,
                      FaultSweepStats* stats, std::vector<Divergence>* out) {
  Rng rng(seed ^ kFaultSalt);
  Database db;
  GenDb gen;
  EXA_RETURN_NOT_OK(BuildRandomDatabase(&rng, opts, &db, &gen));
  for (int p = 0; p < kPlansPerSeed; ++p) {
    // Alternate logical plans with physically lowered joins so the sweep
    // reaches the hash-join emit loop's checkpoints, not just EvalNode's.
    // The third slot is a join as the EXCESS translator emits it,
    // decorrelated and lowered: its HASH_JOIN / IDX_JOIN evaluates the
    // environment operand on each key match. The fourth is a two-bound
    // range, lowered to the interval IDX_PROBE over its ordered index.
    ExprPtr plan;
    if (p == 0) {
      plan = RandomPlan(&rng, opts, gen);
    } else if (p == 1) {
      plan = LowerPhysical(RandomJoinPlan(&rng, opts, gen));
    } else if (p == 2) {
      plan = RandomTranslatedJoinPlan(&rng, opts, gen);
      if (ExprPtr decorrelated = Decorrelated(db, plan)) {
        plan = LowerPhysical(decorrelated, &db, CostParams());
      }
    } else {
      Rng range_rng = IndependentRng(seed ^ kFaultSalt);
      EXA_ASSIGN_OR_RETURN(ExprPtr range,
                           RandomRangeProbePlan(&range_rng, opts, &db));
      plan = LowerPhysical(range, &db, CostParams());
    }
    ++stats->plans;

    // Reference run: unlimited governor, counting injector. Interns any
    // OIDs the plan mints, so every faulted run below replays over
    // identical store state (interning is content-addressed, hence
    // idempotent).
    Governor ref_gov;
    FaultInjector counter(FaultInjector::Mode::kNone, 0);
    ref_gov.set_hooks(&counter);
    Evaluator ref_ev(&db);
    ref_ev.set_parallel_threshold(1);
    ref_ev.set_governor(&ref_gov);
    auto reference = ref_ev.Eval(plan);
    if (!reference.ok()) {
      continue;  // generated plan not evaluable (e.g. type-hostile); skip
    }
    const ValuePtr& want = *reference;

    struct ModeTotal {
      FaultInjector::Mode mode;
      int64_t total;
    };
    const ModeTotal sweeps[] = {
        {FaultInjector::Mode::kAllocFail, counter.charges_seen()},
        {FaultInjector::Mode::kCancelAt, counter.checkpoints_seen()},
        {FaultInjector::Mode::kWorkerKill, counter.batch_checkpoints_seen()},
    };
    for (const ModeTotal& mt : sweeps) {
      for (int64_t k : SweepPoints(mt.total)) {
        ++stats->runs;
        auto token = std::make_shared<CancelToken>();
        Governor gov(ExecLimits::Unlimited(), token);
        FaultInjector inj(mt.mode, k, token);
        gov.set_hooks(&inj);
        Evaluator ev(&db);
        ev.set_parallel_threshold(1);
        ev.set_governor(&gov);
        auto got = ev.Eval(plan);

        if (got.ok()) {
          // The fault point was never reached (possible for worker-kill
          // when the pool ran this plan serially, and for schedule-
          // dependent batch counts). The answer must be the reference one.
          ++stats->clean;
          if (!(*got)->Equals(*want)) {
            out->push_back(MakeFaultDivergence(
                ModeName(mt.mode), seed, plan,
                StrCat("un-fired fault run diverged at point ", k, ": got ",
                       (*got)->ToString(), ", want ", want->ToString())));
          }
        } else {
          StatusCode expect = FaultInjector::ExpectedCode(mt.mode);
          if (!inj.fired()) {
            out->push_back(MakeFaultDivergence(
                ModeName(mt.mode), seed, plan,
                StrCat("run failed at point ", k,
                       " without the injector firing: ",
                       got.status().ToString())));
          } else if (got.status().code() != expect) {
            out->push_back(MakeFaultDivergence(
                ModeName(mt.mode), seed, plan,
                StrCat("fault at point ", k, " surfaced as ",
                       got.status().ToString(), ", want code ",
                       StatusCodeToString(expect))));
          } else {
            ++stats->faults_fired;
          }
        }

        // Graceful degradation: the same evaluator, governor detached,
        // must still produce the reference answer over the same database.
        ++stats->replays;
        ev.set_governor(nullptr);
        auto replay = ev.Eval(plan);
        if (!replay.ok()) {
          out->push_back(MakeFaultDivergence(
              ModeName(mt.mode), seed, plan,
              StrCat("post-fault replay failed at point ", k, ": ",
                     replay.status().ToString())));
        } else if (!(*replay)->Equals(*want)) {
          out->push_back(MakeFaultDivergence(
              ModeName(mt.mode), seed, plan,
              StrCat("post-fault replay diverged at point ", k, ": got ",
                     (*replay)->ToString(), ", want ", want->ToString())));
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace check
}  // namespace excess
