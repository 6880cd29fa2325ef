#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// The benchmark's model of a run: workload specifications, the seeded
// statement streams, the answers computed apart from the planner, the
// deployed server, and the in-process layer probes of the traced run.

#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "methods/registry.h"
#include "objects/database.h"
#include "server/server.h"
#include "support.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  int employees = 0;
  int students = 0;
  int departments = 0;
  /// Closed-loop read clients (each its own connection).
  int readers = 0;
  /// Statement stream of the readers: paper join queries or point lookups.
  bool join_report = false;
  /// Open-loop writer groups per second (0 = no writer).
  double commit_rate = 0;
  /// Times the whole set-up is repeated; setup_s is their median.
  int setup_reps = 0;
};

/// Returns false for an unknown workload name.
bool SpecFor(const std::string& name, WorkloadSpec* spec);

/// Context statement every deployment carries (part of the snapshot).
inline constexpr const char* kRanges = "range of S is Students, E is Employees";
/// The multiset the commit-mix writer appends to.
inline constexpr const char* kSideCreate = "create Side : { int4 }";
inline constexpr const char* kSideRead = "retrieve (x) from x in Side";

/// The paper's queries, as EXCESS source, that join-report cycles through.
struct PaperQuery {
  const char* name;
  /// Salary floor of a two-variable join (its row count is also checked
  /// against a count made from the fixture); -1 for the other queries.
  int64_t join_floor;
  const char* source;
};
const std::vector<PaperQuery>& JoinReportQueries();

/// Width of point-lookup's salary ranges (inclusive bounds lo .. lo+W-1).
inline constexpr int kSalaryWidth = 24;

/// One statement of a stream, with what the checker needs to know.
struct Op {
  enum Kind { kSsnum, kSalary, kJoin };
  Kind kind = kSsnum;
  int64_t a = 0;  // ssnum, salary low bound, or query index
  int64_t b = 0;  // salary high bound
  std::string text;
};

/// A reader's seeded statement stream. Point lookups run three indexed
/// ssnum equalities, then one narrow salary range, keys uniform over the
/// fixture; join-report cycles through JoinReportQueries() in order.
class OpStream {
 public:
  OpStream(const WorkloadSpec& spec, uint64_t seed, uint64_t stream);
  Op Next();

 private:
  const WorkloadSpec& spec_;
  std::mt19937_64 rng_;
  uint64_t i_ = 0;
};

/// Answers computed without the planner: a walk of the fixture's values
/// in C++ for the point lookups, the unoptimized translation for the
/// paper queries. All answers are canonical (see Canonical()).
class Oracle {
 public:
  /// Builds the tables; for join-report also runs every query through an
  /// unoptimized session and checks the two-variable joins' row counts
  /// against counts made directly from the fixture.
  excess::Status Build(const WorkloadSpec& spec, excess::Database* db,
                       excess::MethodRegistry* methods);
  std::string Expected(const Op& op) const;

 private:
  std::map<int64_t, std::pair<std::string, int64_t>> by_ssnum_;
  std::multimap<int64_t, std::string> by_salary_;
  std::vector<std::string> join_answers_;
};

/// Timings of one set-up, in the order it happens.
struct SetupTimes {
  double fixture_ms = 0;      // BuildUniversity
  double index_build_ms = 0;  // Database::CreateIndex x2
  double snapshot_ms = 0;     // initial snapshot (Session::OpenStorage)
  double start_ms = 0;        // Server::Start: recovery + index rebuild
  double warmup_ms = 0;       // every client's first statements
  double total_s = 0;
};

/// A deployed system: the fixture copy the benchmark keeps in process
/// (for the oracle and the layer probes) and the server recovered from
/// the fixture's snapshot.
struct Deployment {
  std::unique_ptr<excess::Database> db;
  std::unique_ptr<excess::MethodRegistry> methods;
  std::unique_ptr<excess::server::Server> server;
  std::string db_path;
  std::string sock_path;
  SetupTimes times;
};

/// Builds the fixture, snapshots it under `dir`, starts a server on it and
/// warms `clients` connections. Files of an earlier deployment at the
/// same paths are removed first.
excess::Status Deploy(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir, int clients, Deployment* out);

/// Per-layer metrics: name -> (value, unit).
using LayerMetrics = std::map<std::string, std::pair<double, std::string>>;

/// Replays `sample` in process through the split path (parse, translate,
/// rewrite, lower, eval) and through Session::Execute, with spans around
/// every call. Fills the excess.* and core.* metrics. Fails when the
/// decomposition self-check fails: the split plan must equal the planner's
/// lowered plan, its value must equal the session's, and the stage times
/// must add up to the session time within kDecompositionTolerance.
inline constexpr double kDecompositionTolerance = 0.25;
excess::Status ReplayLayers(excess::Database* db,
                            excess::MethodRegistry* methods,
                            const std::vector<Op>& sample, Tracer* tracer,
                            LayerMetrics* out);

/// Wire probes: ping round trips, and the first read after an
/// acknowledged commit, which its worker serves after rematerializing
/// (server.wire_rtt_us, server.read_after_commit_ms).
excess::Status ProbeWire(const Deployment& d, Tracer* tracer,
                         LayerMetrics* out);

/// Epoch capture and materialization of the fixture (server.epoch_*).
excess::Status ProbeEpochs(const excess::Database& db,
                           const excess::MethodRegistry& methods,
                           Tracer* tracer, LayerMetrics* out);

/// Storage layer: the writer's commit group logged through a fresh engine
/// in `dir` with the default fsync policy, and recovery of a copy of the
/// fixture snapshot (storage.*).
excess::Status ProbeStorage(const std::string& dir,
                            const std::string& snapshot_copy, Tracer* tracer,
                            LayerMetrics* out);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
