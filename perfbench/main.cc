// End-to-end EXCESS benchmark: deploys an in-process server on a unix
// socket, loads the Figure 1 university fixture, and drives one workload
// through wire clients for a fixed time. Answers are checked against
// computations made apart from the planner. The last stdout line is a JSON
// object with the end-to-end metrics (--trace 0) or the per-layer metrics
// of a traced run (--trace 1). See README.md for the workloads.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "excess/session.h"
#include "server/client.h"

extern char** environ;

namespace perfbench {
namespace {

using excess::Status;
using excess::server::Client;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (k == "--seconds") {
      a->seconds = static_cast<int>(std::strtol(v.c_str(), &end, 10));
      if (*end != '\0' || a->seconds < 1 || a->seconds > 600) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else if (k == "--commit") {
      a->commit = v;
    } else if (k == "--src-digest") {
      a->src_digest = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty();
}

/// The engine reads EXCESS_* knobs (threads, index lowering, fsync,
/// limits, an auto-opened database, a metrics dump); none of them may leak
/// in from the caller's shell.
void ClearExcessEnv() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "EXCESS_", 7) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq == nullptr ? std::strlen(*e) : eq - *e);
    }
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

/// One statement as the client saw it.
struct Record {
  Op op;
  bool ok = false;        // OK response received
  bool transport = false; // no response
  double ms = 0;          // latency (writer: from when it was due)
  uint64_t epoch = 0;
  std::string result;
};

/// Progress of the window at one instant.
struct Sample {
  Clock::time_point t;
  int64_t ops = 0;  // statements answered so far
  double cpu_ms = 0;
};

struct Window {
  std::atomic<int64_t> done{0};
  /// Slice boundaries: every second for the multi-client workloads, every
  /// round for join-report's single client. Throughput and CPU per
  /// statement are medians over slices, so a burst of outside load in
  /// one slice does not move them.
  std::vector<Sample> samples;
  std::vector<std::vector<Record>> readers;
  std::vector<Record> writer;
  std::vector<int64_t> acked;       // values of acknowledged commits
  std::vector<double> late_ms;      // writer: send time minus due time
  double elapsed_s = 0;
  double cpu_ms = 0;
};

std::string Describe(const Record& r) {
  return r.op.text + " -> " + (r.transport ? "transport error" : r.result);
}

/// Closed loop: next statement as soon as the previous one answered,
/// whole rounds only (join-report's round is one pass over its queries).
void ReaderLoop(const WorkloadSpec& spec, uint64_t seed, int id, Client* client,
                Clock::time_point start, Clock::time_point deadline,
                Tracer* tracer, Window* w) {
  OpStream stream(spec, seed, id);
  const size_t round = spec.join_report ? JoinReportQueries().size() : 1;
  std::vector<Record>* out = &w->readers[id];
  std::this_thread::sleep_until(start);
  if (spec.join_report) w->samples.push_back({start, 0, ProcessCpuMs()});
  uint64_t stmt = 0;
  while (Clock::now() < deadline) {
    for (size_t k = 0; k < round; ++k) {
      Record rec;
      rec.op = stream.Next();
      ScopedSpan span(tracer, "wire.read", 0, ++stmt);
      const auto t0 = Clock::now();
      auto r = client->Execute(rec.op.text, 60'000);
      rec.ms = MsBetween(t0, Clock::now());
      if (!r.ok()) {
        rec.transport = true;
        (void)client->Reconnect();
      } else {
        rec.ok = r->code == excess::StatusCode::kOk;
        rec.epoch = r->epoch;
        rec.result = rec.ok ? std::move(r->result) : r->message;
      }
      out->push_back(std::move(rec));
      w->done.fetch_add(1, std::memory_order_relaxed);
    }
    if (spec.join_report) {
      w->samples.push_back({Clock::now(), w->done.load(), ProcessCpuMs()});
    }
  }
}

/// Open loop: group i is due at start + i / rate; its first statement is
/// timed from that instant, so a stall is charged to every group it
/// delays. A group is begin / append <i+1> to Side / tokened commit.
void WriterLoop(const WorkloadSpec& spec, uint64_t seed, Client* client,
                Clock::time_point start, Clock::time_point deadline,
                Tracer* tracer, Window* w) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / spec.commit_rate));
  for (int64_t i = 0;; ++i) {
    const auto due = start + i * period;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    w->late_ms.push_back(MsBetween(due, Clock::now()));
    const int64_t value = i + 1;
    const std::string stmts[3] = {
        "begin", "append " + std::to_string(value) + " to Side", "commit"};
    const std::string token =
        "bench-" + std::to_string(seed) + "-" + std::to_string(i);
    ScopedSpan group(tracer, "wire.commit_group", 0, value);
    auto sent = due;
    for (int k = 0; k < 3; ++k) {
      Record rec;
      rec.op.text = stmts[k];
      auto r = client->Execute(stmts[k], 60'000, 0, 0, k == 2 ? token : "");
      const auto done = Clock::now();
      rec.ms = MsBetween(sent, done);
      sent = done;
      if (!r.ok()) {
        rec.transport = true;
      } else {
        rec.ok = r->code == excess::StatusCode::kOk;
        rec.epoch = r->epoch;
        rec.result = rec.ok ? r->result : r->message;
      }
      const bool ok = rec.ok;
      w->writer.push_back(std::move(rec));
      w->done.fetch_add(1, std::memory_order_relaxed);
      if (!ok) {
        if (k > 0) (void)client->Execute("rollback");
        break;
      }
      if (k == 2) w->acked.push_back(value);
    }
  }
}

Status RunWindow(const WorkloadSpec& spec, const Args& args,
                 const Deployment& d, std::vector<Tracer>* tracers,
                 Window* w) {
  std::vector<Client> clients;
  const int n = spec.readers + (spec.commit_rate > 0 ? 1 : 0);
  for (int c = 0; c < n; ++c) {
    auto client = Client::ConnectUnix(d.sock_path, 60'000);
    EXA_RETURN_NOT_OK(client.status());
    clients.push_back(std::move(*client));
  }
  w->readers.resize(spec.readers);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto deadline = start + std::chrono::seconds(args.seconds);
  const double cpu0 = ProcessCpuMs();
  std::vector<std::thread> threads;
  for (int c = 0; c < spec.readers; ++c) {
    threads.emplace_back(ReaderLoop, std::cref(spec), args.seed, c,
                         &clients[c], start, deadline, &(*tracers)[c], w);
  }
  if (spec.commit_rate > 0) {
    threads.emplace_back(WriterLoop, std::cref(spec), args.seed,
                         &clients[spec.readers], start, deadline,
                         &(*tracers)[spec.readers], w);
  }
  if (!spec.join_report) {
    for (int tick = 0; tick <= args.seconds; ++tick) {
      std::this_thread::sleep_until(start + std::chrono::seconds(tick));
      w->samples.push_back({Clock::now(), w->done.load(), ProcessCpuMs()});
    }
  }
  for (auto& t : threads) t.join();
  w->elapsed_s = SecondsSince(start);
  w->cpu_ms = ProcessCpuMs() - cpu0;
  return Status::OK();
}

/// Checks a rendering of Side: every acknowledged commit's value exactly
/// once, and nothing else. Returns the problem, or "" when it holds.
std::string CheckSide(const std::string& rendered,
                      const std::vector<int64_t>& acked,
                      const std::string& where) {
  std::string text = "{";
  for (size_t i = 0; i < acked.size(); ++i) {
    text += (i ? ", " : "") + std::to_string(acked[i]);
  }
  std::optional<std::string> want = Canonical(text + "}");
  std::optional<std::string> got = Canonical(rendered);
  if (!got || *got != *want) {
    return where + ": Side holds " + rendered.substr(0, 200) + ", expected " +
           std::to_string(acked.size()) + " acknowledged values once each";
  }
  return "";
}

/// The durability checks of commit-mix: live over the wire, and after a
/// cold reopen of a copy of the database files taken while the server
/// still runs (recovery replays the WAL; no orderly shutdown helped).
void CheckCommits(const Deployment& d, const std::string& dir,
                  const std::vector<int64_t>& acked,
                  std::vector<std::string>* problems) {
  namespace fs = std::filesystem;
  auto client = Client::ConnectUnix(d.sock_path, 60'000);
  if (!client.ok()) {
    problems->push_back("live check: " + client.status().ToString());
    return;
  }
  auto r = client->Execute(kSideRead, 60'000);
  if (!r.ok() || r->code != excess::StatusCode::kOk) {
    problems->push_back("live check: read of Side failed");
  } else if (auto p = CheckSide(r->result, acked, "live"); !p.empty()) {
    problems->push_back(p);
  }

  const std::string cold = dir + "/cold.exdb";
  std::error_code ec;
  fs::copy_file(d.db_path, cold, fs::copy_options::overwrite_existing, ec);
  if (!ec) {
    fs::copy_file(d.db_path + ".wal", cold + ".wal",
                  fs::copy_options::overwrite_existing, ec);
  }
  if (ec) {
    problems->push_back("cold reopen: copy failed: " + ec.message());
    return;
  }
  excess::Database db;
  excess::MethodRegistry methods(&db.catalog());
  excess::Session::Options opts;
  opts.env_autoopen = false;
  excess::Session s(&db, &methods, opts);
  Status st = s.OpenStorage(cold);
  auto v = st.ok() ? s.Execute(kSideRead)
                   : excess::Result<excess::ValuePtr>(st);
  if (!v.ok()) {
    problems->push_back("cold reopen: " + v.status().ToString());
  } else if (auto p = CheckSide((*v)->ToString(), acked, "cold reopen");
             !p.empty()) {
    problems->push_back(p);
  }
}

void PrintMetrics(bool correct, int64_t attempted, int64_t failed,
                  const LayerMetrics& m) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : m) {
    json += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(vu.first) + ", \"unit\": " + JsonString(vu.second) +
            "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const std::string dir = std::filesystem::current_path().string();
  std::printf(
      "run-info {\"workload\": %s, \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": %s, \"commit\": %s, "
      "\"src_digest\": %s, \"employees\": %d, \"students\": %d, "
      "\"readers\": %d, \"commit_rate\": %g, \"wal_fsync\": \"default (on)\"}\n",
      JsonString(spec.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? 1 : 0, std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.commit).c_str(), JsonString(args.src_digest).c_str(),
      spec.employees, spec.students, spec.readers, spec.commit_rate);

  // Set-up, repeated; the last deployment serves the workload.
  const int clients = spec.readers + (spec.commit_rate > 0 ? 1 : 0);
  Deployment d;
  std::vector<double> setup_s, index_ms, start_ms;
  for (int r = 0; r < spec.setup_reps; ++r) {
    if (d.server != nullptr) d.server->Shutdown();
    d = Deployment();
    Status st = Deploy(spec, args.seed, dir, clients, &d);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
    const SetupTimes& t = d.times;
    std::printf("setup %d: fixture %.1f ms, indexes %.1f ms, snapshot %.1f ms, "
                "server start %.1f ms, warm-up %.1f ms, total %.3f s\n",
                r, t.fixture_ms, t.index_build_ms, t.snapshot_ms, t.start_ms,
                t.warmup_ms, t.total_s);
    setup_s.push_back(t.total_s);
    index_ms.push_back(t.index_build_ms);
    start_ms.push_back(t.start_ms);
  }

  Oracle oracle;
  if (Status st = oracle.Build(spec, d.db.get(), d.methods.get()); !st.ok()) {
    std::fprintf(stderr, "oracle failed: %s\n", st.ToString().c_str());
    d.server->Shutdown();
    return 2;
  }
  const std::string snapshot_copy = dir + "/snapshot-copy.exdb";
  if (args.trace) {
    std::filesystem::copy_file(d.db_path, snapshot_copy);
  }

  std::vector<Tracer> tracers;
  for (int c = 0; c < clients; ++c) tracers.emplace_back(args.trace, c + 1);
  Tracer probe_tracer(args.trace, 100);
  Window w;
  if (Status st = RunWindow(spec, args, d, &tracers, &w); !st.ok()) {
    std::fprintf(stderr, "workload failed to start: %s\n",
                 st.ToString().c_str());
    d.server->Shutdown();
    return 2;
  }

  // Peak memory of set-up and the timed window, before the checks add
  // their own copies of the database.
  const double peak_rss_mb = PeakRssMb();

  // Checks: answers, epoch order per reader, durability of commits.
  std::vector<std::string> problems;  // failed checks: the run is wrong
  std::vector<std::string> failures;  // first few failed operations
  int64_t attempted = 0, failed = 0, ok_ops = 0;
  std::vector<double> latency;
  uint64_t epoch_min = UINT64_MAX, epoch_max = 0;
  std::map<std::string, std::vector<double>> by_query;
  // A statement counts as answered when it got an OK response with the
  // right answer; anything else counts as failed.
  auto tally = [&](const Record& r, bool right, const std::string& label) {
    ++attempted;
    if (!r.ok || !right) {
      ++failed;
      if (failures.size() < 5) failures.push_back(Describe(r));
      return;
    }
    ++ok_ops;
    latency.push_back(r.ms);
    by_query[label].push_back(r.ms);
    epoch_min = std::min(epoch_min, r.epoch);
    epoch_max = std::max(epoch_max, r.epoch);
  };
  for (const auto& recs : w.readers) {
    uint64_t last_epoch = 0;
    for (const Record& r : recs) {
      bool right = true;
      if (r.ok) {
        if (r.epoch < last_epoch) {
          problems.push_back("a reader's epoch went back from " +
                             std::to_string(last_epoch) + " to " +
                             std::to_string(r.epoch));
        }
        last_epoch = r.epoch;
        const std::string want = oracle.Expected(r.op);
        right = Canonical(r.result) == want;
        if (!right && problems.size() < 5) {
          problems.push_back("wrong answer: " + Describe(r).substr(0, 300) +
                             " expected " + want.substr(0, 300));
        }
      }
      tally(r, right,
            r.op.kind == Op::kJoin    ? JoinReportQueries()[r.op.a].name
            : r.op.kind == Op::kSsnum ? "ssnum-eq"
                                      : "salary-range");
    }
  }
  for (const Record& r : w.writer) {
    tally(r, true, "writer-" + r.op.text.substr(0, r.op.text.find(' ')));
  }
  if (spec.commit_rate > 0) CheckCommits(d, dir, w.acked, &problems);

  for (const auto& [name, v] : by_query) {
    std::printf("ops %-22s n=%-7zu p50 %.3f ms  p99 %.3f ms\n", name.c_str(),
                v.size(), Median(v), Quantile(v, 0.99));
  }
  if (!w.late_ms.empty()) {
    std::printf("writer: %zu groups due, %zu acknowledged, generator late "
                "p50 %.3f ms max %.3f ms\n",
                w.late_ms.size(), w.acked.size(), Median(w.late_ms),
                Quantile(w.late_ms, 1.0));
  }

  std::vector<double> slice_rate, slice_cpu;
  for (size_t i = 1; i < w.samples.size(); ++i) {
    const Sample& a = w.samples[i - 1];
    const Sample& b = w.samples[i];
    if (b.ops == a.ops) continue;
    slice_rate.push_back((b.ops - a.ops) / (MsBetween(a.t, b.t) / 1e3));
    slice_cpu.push_back((b.cpu_ms - a.cpu_ms) / (b.ops - a.ops));
  }
  // Share of statements whose exact text an earlier statement of the run
  // already sent: what a statement or plan cache keyed on text could hit.
  std::unordered_set<std::string> texts;
  int64_t total_texts = 0;
  for (const auto& recs : w.readers) {
    for (const Record& r : recs) texts.insert(r.op.text);
    total_texts += static_cast<int64_t>(recs.size());
  }
  for (const Record& r : w.writer) texts.insert(r.op.text);
  total_texts += static_cast<int64_t>(w.writer.size());
  std::printf("repeated statement texts: %.4f of %lld statements\n",
              total_texts == 0 ? 0.0
                               : 1.0 - static_cast<double>(texts.size()) /
                                           static_cast<double>(total_texts),
              static_cast<long long>(total_texts));
  std::printf("window: %.3f s, %lld statements answered, %.1f ms CPU, "
              "%zu slices\n",
              w.elapsed_s, static_cast<long long>(ok_ops), w.cpu_ms,
              slice_rate.size());

  LayerMetrics e2e;
  e2e["setup_s"] = {Median(setup_s), "s"};
  e2e["ops_per_s"] = {Median(slice_rate), "1/s"};
  e2e["op_p50_ms"] = {Median(latency), "ms"};
  e2e["op_p99_ms"] = {Quantile(latency, 0.99), "ms"};
  e2e["cpu_ms_per_op"] = {Median(slice_cpu), "ms"};
  e2e["peak_rss_mb"] = {peak_rss_mb, "MB"};

  LayerMetrics layers;
  if (args.trace) {
    layers["trace.ops_per_s"] = {e2e["ops_per_s"].first, "1/s"};
    layers["objects.index_build_ms"] = {Median(index_ms), "ms"};
    layers["server.start_ms"] = {Median(start_ms), "ms"};
    layers["server.epochs_published"] = {
        epoch_max >= epoch_min ? static_cast<double>(epoch_max - epoch_min)
                               : 0.0,
        "count"};
    layers["bench.writer_late_ms"] = {Quantile(w.late_ms, 1.0), "ms"};
    std::vector<Op> sample;
    OpStream stream(spec, args.seed, 0);
    const size_t n = spec.join_report ? JoinReportQueries().size() : 200;
    for (size_t i = 0; i < n; ++i) sample.push_back(stream.Next());
    for (Status st :
         {ProbeWire(d, &probe_tracer, &layers),
          ReplayLayers(d.db.get(), d.methods.get(), sample, &probe_tracer,
                       &layers),
          ProbeEpochs(*d.db, *d.methods, &probe_tracer, &layers),
          ProbeStorage(dir, snapshot_copy, &probe_tracer, &layers)}) {
      if (!st.ok()) problems.push_back("layer probe: " + st.ToString());
    }
  }
  d.server->Shutdown();

  for (const auto& [name, vu] : e2e) {
    std::printf("metric %-22s %14.4f %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  if (args.trace) {
    std::vector<Span> spans = probe_tracer.spans();
    for (const Tracer& t : tracers) {
      spans.insert(spans.end(), t.spans().begin(), t.spans().end());
    }
    for (const auto& [name, st] : SelfTimes(spans)) {
      std::printf("span %-28s n=%-7lld self %.1f us/span\n", name.c_str(),
                  static_cast<long long>(st.count), st.self_us / st.count);
    }
    if (!args.trace_out.empty() && !WriteSpans(args.trace_out, spans)) {
      problems.push_back("could not write spans to " + args.trace_out);
    }
    for (const auto& [name, vu] : layers) {
      std::printf("layer %-30s %14.4f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  }
  for (const auto& f : failures) std::printf("FAILED OP: %s\n", f.c_str());
  for (const auto& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  const bool correct = problems.empty();
  PrintMetrics(correct, attempted, failed, args.trace ? layers : e2e);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::ClearExcessEnv();
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: excess_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>] "
                 "[--commit <id>] [--src-digest <hash>]\n");
    return 2;
  }
  return perfbench::Run(args);
}
