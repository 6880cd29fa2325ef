// The concurrent session server (src/server/): wire-protocol codecs,
// request/response round trips over real unix and TCP sockets, statement
// routing and rejection, admission-control shedding with retry-after,
// deadline propagation into the governor, dead-client cancellation, the
// abandon backstop for stalled workers, graceful drain, and a
// deterministic client-fault sweep with a reopen oracle against the
// committed statements.

#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "excess/session.h"
#include "methods/registry.h"
#include "objects/database.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/wire.h"
#include "util/status.h"

namespace excess {
namespace server {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name)->value();
}

bool WaitFor(const std::function<bool()>& pred, std::chrono::milliseconds max) {
  auto deadline = std::chrono::steady_clock::now() + max;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(5ms);
  }
  return pred();
}

/// Hooks that stall selected jobs (by global dequeue index) inside a
/// worker until released — the deterministic seam for exercising full
/// queues, abandoned jobs, and dead-client cancellation.
class StallHooks : public ServerHooks {
 public:
  void OnJobStart(uint64_t idx) override {
    std::unique_lock<std::mutex> l(mu_);
    if (stall_.count(idx) == 0) return;
    started_.insert(idx);
    cv_.notify_all();
    cv_.wait(l, [&] { return released_; });
  }
  void StallJob(uint64_t idx) {
    std::lock_guard<std::mutex> l(mu_);
    stall_.insert(idx);
  }
  bool WaitStarted(uint64_t idx, std::chrono::milliseconds max) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, max, [&] { return started_.count(idx) > 0; });
  }
  void ReleaseAll() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::set<uint64_t> stall_;
  std::set<uint64_t> started_;
  bool released_ = false;
};

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static std::atomic<int> counter{0};
    // Unix socket paths must fit sockaddr_un; keep them short and unique.
    sock_ = "/tmp/exsrv_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)) + ".sock";
    dir_ = fs::temp_directory_path() /
           ("excess_server_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::unsetenv("EXCESS_DB_PATH");
    ::setenv("EXCESS_WAL_FSYNC", "0", 1);
    obs::MetricsRegistry::Global().ResetForTest();
  }
  void TearDown() override {
    fs::remove_all(dir_);
    ::unlink(sock_.c_str());
    ::unsetenv("EXCESS_WAL_FSYNC");
    ::unsetenv("EXCESS_DB_PATH");
  }

  ServerOptions Opts() {
    ServerOptions o;
    o.unix_path = sock_;
    o.workers = 2;
    return o;
  }

  std::string sock_;
  fs::path dir_;
};

// --- wire codecs (no sockets) -----------------------------------------------

TEST(WireTest, RequestRoundTrip) {
  Request req;
  req.opcode = Opcode::kStatement;
  req.deadline_ms = 1234;
  req.max_bytes = (1ull << 33) + 7;
  req.max_occurrences = 99;
  req.statement = "retrieve (x) from x in Nums";
  auto back = DecodeRequest(EncodeRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->opcode, req.opcode);
  EXPECT_EQ(back->deadline_ms, req.deadline_ms);
  EXPECT_EQ(back->max_bytes, req.max_bytes);
  EXPECT_EQ(back->max_occurrences, req.max_occurrences);
  EXPECT_EQ(back->statement, req.statement);
}

TEST(WireTest, ResponseRoundTrip) {
  Response resp;
  resp.code = StatusCode::kResourceExhausted;
  resp.epoch = 42;
  resp.retry_after_ms = 250;
  resp.message = "admission queue full";
  resp.result = "payload";
  auto back = DecodeResponse(EncodeResponse(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->code, resp.code);
  EXPECT_EQ(back->epoch, resp.epoch);
  EXPECT_EQ(back->retry_after_ms, resp.retry_after_ms);
  EXPECT_EQ(back->message, resp.message);
  EXPECT_EQ(back->result, resp.result);
}

TEST(WireTest, DecodersAreStrict) {
  // Unknown opcode.
  Request req;
  std::string enc = EncodeRequest(req);
  enc[0] = 77;
  EXPECT_FALSE(DecodeRequest(enc).ok());
  // Truncated payload.
  std::string good = EncodeRequest(req);
  EXPECT_FALSE(DecodeRequest(std::string_view(good).substr(0, 8)).ok());
  // Trailing garbage.
  EXPECT_FALSE(DecodeRequest(good + "x").ok());
  // Unknown status code.
  Response resp;
  std::string renc = EncodeResponse(resp);
  renc[0] = static_cast<char>(200);
  EXPECT_FALSE(DecodeResponse(renc).ok());
  EXPECT_FALSE(DecodeResponse(EncodeResponse(resp) + "x").ok());
}

// --- round trips and epochs -------------------------------------------------

TEST_F(ServerTest, PingStatementsAndEpochs) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());

  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, StatusCode::kOk);
  EXPECT_GE(ping->epoch, 1u);

  uint64_t last_epoch = ping->epoch;
  auto create = client->Execute("create Nums: { int4 }");
  ASSERT_TRUE(create.ok());
  ASSERT_EQ(create->code, StatusCode::kOk) << create->message;
  EXPECT_GT(create->epoch, last_epoch);  // a write publishes a new epoch
  last_epoch = create->epoch;

  auto append = client->Execute("append all {1, 2, 3} to Nums");
  ASSERT_TRUE(append.ok());
  ASSERT_EQ(append->code, StatusCode::kOk) << append->message;
  EXPECT_GT(append->epoch, last_epoch);
  last_epoch = append->epoch;

  // Read-your-writes on one connection, and epochs never go backwards.
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->code, StatusCode::kOk) << count->message;
  EXPECT_EQ(count->result, "3");
  EXPECT_GE(count->epoch, last_epoch);

  // Errors carry the statement's own status, not a transport failure.
  auto bad = client->Execute("retrieve ( count(NoSuchSet) )");
  ASSERT_TRUE(bad.ok());
  EXPECT_NE(bad->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, JoinRowsRenderInTargetOrderOverTheWire) {
  // The server optimizes every read; a join's columns must still arrive in
  // target-list order, exactly as the unoptimized translation renders them.
  const std::vector<std::string> seed = {
      "retrieve ({(k: 1, v: 10), (k: 2, v: 20), (k: 2, v: 21)}) into Ps",
      "retrieve ({(k: 2, v: 5), (k: 3, v: 6)}) into Qs",
  };
  const std::string join =
      "retrieve (z: Q.v, a: P.v, m: P.k) from P in Ps, Q in Qs "
      "where P.k = Q.k and P.v < 21";
  Database db;
  MethodRegistry methods(&db.catalog());
  Session::Options raw;
  raw.optimize = false;
  raw.env_autoopen = false;
  Session plain(&db, &methods, raw);
  for (const auto& stmt : seed) ASSERT_TRUE(plain.Execute(stmt).ok()) << stmt;
  auto want = plain.Execute(join);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ((*want)->ToString(), "{(z: 5, a: 20, m: 2)}");

  Server server(Opts());
  for (const auto& stmt : seed) ASSERT_TRUE(server.ExecuteLocal(stmt).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto got = client->Execute(join);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->code, StatusCode::kOk) << got->message;
  EXPECT_EQ(got->result, (*want)->ToString());
  server.Shutdown();
}

TEST_F(ServerTest, ExecuteLocalSeedsBeforeClients) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.ExecuteLocal("append all {5, 6} to Nums").ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  ASSERT_EQ(count->code, StatusCode::kOk) << count->message;
  EXPECT_EQ(count->result, "2");
  server.Shutdown();
}

TEST_F(ServerTest, SessionStatementsAreRejected) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  // `open` rebinds the process to another file: embedded-session only.
  // Transactions, by contrast, are wire features now (lease on the writer)
  // — and ExecuteLocal is where THEY are rejected, since a local `begin`
  // would have no connection lease to scope or reap it.
  auto r = client->Execute("open \"nope.db\"");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kUnsupported);
  for (const char* stmt : {"begin", "commit", "rollback"}) {
    auto local = server.ExecuteLocal(stmt);
    ASSERT_FALSE(local.ok()) << stmt;
    EXPECT_EQ(local.status().code(), StatusCode::kUnsupported) << stmt;
  }
  // The connection survives rejected statements.
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, ParseErrorKeepsConnection) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto r = client->Execute("retrieve retrieve retrieve");
  ASSERT_TRUE(r.ok());
  EXPECT_NE(r->code, StatusCode::kOk);
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, MalformedPayloadClosesConnectionServerSurvives) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  // A well-framed but undecodable payload: answered with kInvalid, then
  // the connection is dropped (framing discipline is broken).
  ASSERT_TRUE(WriteFrame(client->fd(), "\xFFgarbage", 1'000).ok());
  auto resp_payload = ReadFrame(client->fd(), 5'000);
  ASSERT_TRUE(resp_payload.ok());
  auto resp = DecodeResponse(*resp_payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kInvalid);
  auto next = ReadFrame(client->fd(), 5'000);
  EXPECT_FALSE(next.ok());  // server closed the connection
  EXPECT_GE(CounterValue("server.requests.malformed"), 1);

  // An oversized length prefix drops the connection outright.
  auto client2 = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client2.ok());
  std::string huge_hdr = {'\xFF', '\xFF', '\xFF', '\x7F'};
  ASSERT_EQ(::send(client2->fd(), huge_hdr.data(), 4, MSG_NOSIGNAL), 4);
  auto dropped = ReadFrame(client2->fd(), 5'000);
  EXPECT_FALSE(dropped.ok());

  // The server keeps serving fresh connections.
  auto client3 = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client3.ok());
  auto ping = client3->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, StatusCode::kOk);
  server.Shutdown();
}

// --- deadlines, limits, cancellation ----------------------------------------

TEST_F(ServerTest, GovernorDeadlineAndLimitsPropagate) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  std::string big = "append all {1";
  for (int i = 2; i <= 200; ++i) big += ", " + std::to_string(i);
  big += "} to Nums";
  ASSERT_TRUE(server.ExecuteLocal(big).ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());

  // 8M-row cross product against a 1 ms budget: the governor must trip
  // long before completion (kCancelled if the connection backstop fires
  // the token first).
  const std::string heavy =
      "retrieve (a: x, b: y, c: z) from x in Nums, y in Nums, z in Nums";
  auto timed = client->Execute(heavy, /*deadline_ms=*/1);
  ASSERT_TRUE(timed.ok());
  EXPECT_TRUE(timed->code == StatusCode::kDeadlineExceeded ||
              timed->code == StatusCode::kCancelled)
      << StatusCodeToString(timed->code) << ": " << timed->message;

  // Per-request row budget.
  auto rows = client->Execute(heavy, /*deadline_ms=*/30'000, /*max_bytes=*/0,
                              /*max_occurrences=*/1'000);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->code, StatusCode::kResourceExhausted)
      << StatusCodeToString(rows->code) << ": " << rows->message;

  // The connection (and server) shrug off governed failures.
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->code, StatusCode::kOk);
  EXPECT_EQ(count->result, "200");
  server.Shutdown();
}

TEST_F(ServerTest, AdmissionControlShedsWithRetryAfter) {
  StallHooks hooks;
  hooks.StallJob(0);
  ServerOptions opts = Opts();
  opts.workers = 1;
  opts.queue_capacity = 1;
  opts.hooks = &hooks;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());

  auto a = Client::ConnectUnix(sock_);
  auto b = Client::ConnectUnix(sock_);
  auto c = Client::ConnectUnix(sock_);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  Request req;
  req.opcode = Opcode::kStatement;
  req.deadline_ms = 30'000;
  req.statement = "retrieve ( count(Nums) )";
  // A's job occupies the only worker (stalled inside the hook); B's fills
  // the queue (capacity 1).
  ASSERT_TRUE(WriteFrame(a->fd(), EncodeRequest(req), 1'000).ok());
  ASSERT_TRUE(hooks.WaitStarted(0, 5'000ms));
  ASSERT_TRUE(WriteFrame(b->fd(), EncodeRequest(req), 1'000).ok());
  auto* depth = obs::MetricsRegistry::Global().GetHistogram(
      "server.queue.depth");
  ASSERT_TRUE(WaitFor([&] { return depth->count() >= 2; }, 5'000ms))
      << "B's job never reached the queue";

  // C must be shed: queue full, worker busy.
  auto shed = c->Execute("retrieve ( count(Nums) )", /*deadline_ms=*/30'000);
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->code, StatusCode::kResourceExhausted) << shed->message;
  EXPECT_GE(shed->retry_after_ms, 1u);
  EXPECT_GE(CounterValue("server.requests.shed"), 1);

  hooks.ReleaseAll();
  for (Client* cl : {&*a, &*b}) {
    auto payload = ReadFrame(cl->fd(), 10'000);
    ASSERT_TRUE(payload.ok());
    auto resp = DecodeResponse(*payload);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->code, StatusCode::kOk) << resp->message;
    EXPECT_EQ(resp->result, "0");
  }
  server.Shutdown();
}

TEST_F(ServerTest, StalledWorkerAbandonedAfterGrace) {
  StallHooks hooks;
  hooks.StallJob(0);
  ServerOptions opts = Opts();
  opts.workers = 1;
  opts.cancel_grace_ms = 200;
  opts.hooks = &hooks;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto r = client->Execute("retrieve ( count(Nums) )", /*deadline_ms=*/100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kDeadlineExceeded) << r->message;
  EXPECT_NE(r->message.find("abandoned"), std::string::npos) << r->message;
  EXPECT_GE(CounterValue("server.jobs.abandoned"), 1);
  // The abandoning connection is closed: outcome of its job is unknown.
  auto next = ReadFrame(client->fd(), 2'000);
  EXPECT_FALSE(next.ok());

  hooks.ReleaseAll();  // the worker resumes, finds a cancelled token, moves on
  auto client2 = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client2.ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto ping = client2->Ping();
        return ping.ok() && ping->code == StatusCode::kOk;
      },
      5'000ms));
  server.Shutdown();
}

TEST_F(ServerTest, DeadClientCancelsItsQuery) {
  StallHooks hooks;
  hooks.StallJob(0);
  ServerOptions opts = Opts();
  opts.workers = 1;
  opts.hooks = &hooks;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());

  {
    auto doomed = Client::ConnectUnix(sock_);
    ASSERT_TRUE(doomed.ok());
    Request req;
    req.opcode = Opcode::kStatement;
    req.deadline_ms = 60'000;
    req.statement = "retrieve ( count(Nums) )";
    ASSERT_TRUE(WriteFrame(doomed->fd(), EncodeRequest(req), 1'000).ok());
    ASSERT_TRUE(hooks.WaitStarted(0, 5'000ms));
    doomed->Close();  // client dies mid-query
  }
  EXPECT_TRUE(WaitFor(
      [&] { return CounterValue("server.cancelled.dead_client") >= 1; },
      5'000ms));
  hooks.ReleaseAll();

  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto ping = client->Ping();
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->code, StatusCode::kOk);
  server.Shutdown();
}

// --- lifecycle --------------------------------------------------------------

TEST_F(ServerTest, ShutdownOpcodeSignalsDrain) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  EXPECT_FALSE(server.WaitForShutdownRequest(/*timeout_ms=*/10));
  auto r = client->RequestShutdown();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kOk);
  EXPECT_TRUE(server.WaitForShutdownRequest(/*timeout_ms=*/5'000));
  server.Shutdown();
  // Drained: the socket is gone and fresh connects fail.
  EXPECT_FALSE(Client::ConnectUnix(sock_).ok());
}

TEST_F(ServerTest, GracefulDrainUnderLoadCheckpointsCommittedState) {
  std::string db_path = (dir_ / "drain.db").string();
  ServerOptions opts = Opts();
  opts.workers = 2;
  opts.db_path = db_path;
  auto server = std::make_unique<Server>(opts);
  ASSERT_TRUE(server->ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server->Start().ok());

  std::atomic<int> acked{0};
  std::atomic<int> attempted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::ConnectUnix(sock_);
      if (!client.ok()) return;
      for (int i = 0; i < 200; ++i) {
        if (t == 0) {
          attempted.fetch_add(1);
          auto r = client->Execute("append 1 to Nums", 5'000);
          if (!r.ok()) {
            attempted.fetch_sub(1);  // never reached the server's queue
            break;
          }
          if (r->code == StatusCode::kOk) acked.fetch_add(1);
          if (r->code == StatusCode::kUnavailable) break;
        } else {
          auto r = client->Execute("retrieve ( count(Nums) )", 5'000);
          if (!r.ok() || r->code == StatusCode::kUnavailable) break;
        }
      }
    });
  }
  std::this_thread::sleep_for(100ms);
  server->Shutdown(/*grace_ms=*/5'000);
  for (auto& t : threads) t.join();
  server.reset();

  ASSERT_GT(acked.load(), 0);
  // Reopen: every acked append is durable; nothing beyond the attempts.
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(db_path).ok());
  auto count = s.Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  int64_t recovered = std::stoll((*count)->ToString());
  EXPECT_GE(recovered, acked.load());
  EXPECT_LE(recovered, attempted.load());
}

TEST_F(ServerTest, TcpRoundTrip) {
  ServerOptions opts;
  opts.tcp_port = 0;  // ephemeral
  opts.workers = 2;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.tcp_port(), 0);
  auto client = Client::ConnectTcp("127.0.0.1", server.tcp_port());
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Execute("create Nums: { int4 }")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("append all {4, 5} to Nums")->code,
            StatusCode::kOk);
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->code, StatusCode::kOk);
  EXPECT_EQ(count->result, "2");
  server.Shutdown();
}

// --- fault-injection sweep --------------------------------------------------

// Clients die at every third request (after sending, before reading the
// response). Oracle: the server never stops serving, and the reopened
// database holds every acknowledged append, possibly some unacknowledged
// ones (committed but the ack was lost to the client's death), and nothing
// else.
TEST_F(ServerTest, ClientFaultSweepKeepsServingAndDurableStateConsistent) {
  std::string db_path = (dir_ / "sweep.db").string();
  ServerOptions opts = Opts();
  opts.db_path = db_path;
  auto server = std::make_unique<Server>(opts);
  ASSERT_TRUE(server->ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server->Start().ok());

  constexpr int kAttempts = 30;
  std::set<int> acked;
  for (int i = 1; i <= kAttempts; ++i) {
    std::string stmt = "append " + std::to_string(i) + " to Nums";
    if (i % 3 == 0) {
      // Fault point: send, then die without reading the response.
      auto doomed = Client::ConnectUnix(sock_);
      ASSERT_TRUE(doomed.ok());
      Request req;
      req.opcode = Opcode::kStatement;
      req.deadline_ms = 5'000;
      req.statement = stmt;
      ASSERT_TRUE(WriteFrame(doomed->fd(), EncodeRequest(req), 1'000).ok());
      doomed->Close();
    } else {
      auto client = Client::ConnectUnix(sock_);
      ASSERT_TRUE(client.ok());
      auto r = client->Execute(stmt, 5'000);
      ASSERT_TRUE(r.ok());
      if (r->code == StatusCode::kOk) acked.insert(i);
    }
  }
  // Still serving after the burst of client deaths.
  auto survivor = Client::ConnectUnix(sock_);
  ASSERT_TRUE(survivor.ok());
  ASSERT_TRUE(WaitFor(
      [&] {
        auto ping = survivor->Ping();
        return ping.ok() && ping->code == StatusCode::kOk;
      },
      5'000ms));
  EXPECT_EQ(acked.size(), static_cast<size_t>(kAttempts - kAttempts / 3));
  server->Shutdown(/*grace_ms=*/5'000);
  server.reset();

  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(db_path).ok());
  // acked ⊆ recovered ⊆ attempted, element by element.
  for (int i = 1; i <= kAttempts; ++i) {
    auto r = s.Execute("retrieve ( count(x from x in Nums where x = " +
                       std::to_string(i) + ") )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    int64_t n = std::stoll((*r)->ToString());
    ASSERT_TRUE(n == 0 || n == 1);
    if (acked.count(i) > 0) {
      EXPECT_EQ(n, 1) << "acked append " << i << " lost";
    }
  }
  auto total = s.Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(total.ok());
  int64_t recovered = std::stoll((*total)->ToString());
  EXPECT_GE(recovered, static_cast<int64_t>(acked.size()));
  EXPECT_LE(recovered, static_cast<int64_t>(kAttempts));
}

// --- wire transactions ------------------------------------------------------

TEST_F(ServerTest, WireTxnCommitVisibilityAndLeaseExclusion) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto holder = Client::ConnectUnix(sock_);
  auto other = Client::ConnectUnix(sock_);
  ASSERT_TRUE(holder.ok() && other.ok());

  ASSERT_EQ(holder->Execute("begin")->code, StatusCode::kOk);
  ASSERT_EQ(holder->Execute("append 7 to Nums")->code, StatusCode::kOk);
  // Read-your-writes: the lease holder's reads run on the writer.
  auto mine = holder->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(mine.ok());
  EXPECT_EQ(mine->result, "1");
  // Nobody else sees the uncommitted append (no epoch published mid-txn)…
  auto theirs = other->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(theirs->code, StatusCode::kOk);
  EXPECT_EQ(theirs->result, "0");
  // …and their writes are blocked with a typed retry-later, not an error
  // that loses work.
  auto blocked = other->Execute("append 8 to Nums");
  ASSERT_TRUE(blocked.ok());
  EXPECT_EQ(blocked->code, StatusCode::kUnavailable) << blocked->message;
  EXPECT_GE(blocked->retry_after_ms, 1u);

  uint64_t before = theirs->epoch;
  auto committed = holder->Execute("commit");
  ASSERT_TRUE(committed.ok());
  ASSERT_EQ(committed->code, StatusCode::kOk) << committed->message;
  EXPECT_GT(committed->epoch, before);  // the commit published the group
  auto after = other->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->result, "1");
  // Writer freed: the other connection's write goes through now.
  EXPECT_EQ(other->Execute("append 8 to Nums")->code, StatusCode::kOk);
  EXPECT_GE(CounterValue("server.txn.leases"), 1);
  server.Shutdown();
}

TEST_F(ServerTest, WireTxnRollbackDiscards) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Execute("begin")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("append 9 to Nums")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("rollback")->code, StatusCode::kOk);
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "0");
  server.Shutdown();
}

TEST_F(ServerTest, ExpiredLeaseIsReapedWithTypedError) {
  ServerOptions opts = Opts();
  opts.txn_lease_ms = 50;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Execute("begin")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("append 1 to Nums")->code, StatusCode::kOk);
  // Outlive the lease: the reaper rolls the transaction back.
  ASSERT_TRUE(WaitFor([&] { return CounterValue("server.txn.reaped") >= 1; },
                      5'000ms));
  // The holder learns its fate through a typed error, once…
  auto stale = client->Execute("append 2 to Nums");
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(stale->code, StatusCode::kDeadlineExceeded) << stale->message;
  EXPECT_NE(stale->message.find("lease"), std::string::npos) << stale->message;
  // …and is then a normal auto-commit connection again.
  EXPECT_EQ(client->Execute("append 3 to Nums")->code, StatusCode::kOk);
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "1") << "reaped transaction leaked an append";
  server.Shutdown();
}

TEST_F(ServerTest, DeadClientMidTxnIsReaped) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  {
    auto doomed = Client::ConnectUnix(sock_);
    ASSERT_TRUE(doomed.ok());
    ASSERT_EQ(doomed->Execute("begin")->code, StatusCode::kOk);
    ASSERT_EQ(doomed->Execute("append 5 to Nums")->code, StatusCode::kOk);
  }  // dies holding the lease
  ASSERT_TRUE(WaitFor([&] { return CounterValue("server.txn.reaped") >= 1; },
                      5'000ms));
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "0");
  // The writer is free for the next transaction.
  ASSERT_EQ(client->Execute("begin")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("append 6 to Nums")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("commit")->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, TokenedCommitResolvesExactlyOnce) {
  Server server(Opts());
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  ASSERT_EQ(client->Execute("begin")->code, StatusCode::kOk);
  ASSERT_EQ(client->Execute("append 11 to Nums")->code, StatusCode::kOk);
  auto first = client->Execute("commit", 0, 0, 0, "tok-1");
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->code, StatusCode::kOk) << first->message;
  EXPECT_FALSE(first->resolved_by_token);

  // The retried commit — as a client that lost the ack would send it —
  // resolves from the dedup window instead of double-applying.
  auto again = client->Execute("commit", 0, 0, 0, "tok-1");
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->code, StatusCode::kOk) << again->message;
  EXPECT_TRUE(again->resolved_by_token);
  EXPECT_EQ(again->epoch, first->epoch);
  EXPECT_GE(CounterValue("server.txn.resolved_by_token"), 1);

  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "1");
  // A commit with a FRESH token and no open transaction is a plain error.
  auto fresh = client->Execute("commit", 0, 0, 0, "tok-2");
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, CommitTokenSurvivesRestartViaWal) {
  std::string db_path = (dir_ / "tok.db").string();
  // Phase 1: commit a tokened group, then "crash" — no checkpoint, so the
  // WAL still holds the journaled token.
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    ASSERT_TRUE(s.OpenStorage(db_path).ok());
    ASSERT_TRUE(s.Execute("create Nums: { int4 }").ok());
    ASSERT_TRUE(s.Execute("begin").ok());
    ASSERT_TRUE(s.Execute("append 42 to Nums").ok());
    s.set_next_commit_token("restart-tok");
    ASSERT_TRUE(s.Execute("commit").ok());
  }
  // Phase 2: a server recovering that WAL re-seeds its dedup window, so
  // the retried commit resolves instead of failing or double-applying.
  ServerOptions opts = Opts();
  opts.db_path = db_path;
  Server server(opts);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  auto retried = client->Execute("commit", 0, 0, 0, "restart-tok");
  ASSERT_TRUE(retried.ok());
  ASSERT_EQ(retried->code, StatusCode::kOk) << retried->message;
  EXPECT_TRUE(retried->resolved_by_token);
  auto count = client->Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "1");
  server.Shutdown();
}

// --- protocol-version negotiation -------------------------------------------

TEST(WireVersionTest, FrameHeaderCarriesMagicAndVersion) {
  std::string frame = FrameBytes("abc");
  ASSERT_GE(frame.size(), 8u);
  EXPECT_EQ(frame[0], 'E');
  EXPECT_EQ(frame[1], 'X');
  EXPECT_EQ(frame[2], 'W');
  EXPECT_EQ(static_cast<uint8_t>(frame[3]), kWireVersion);
}

TEST(WireVersionTest, LegacyFrameIsTypedMismatchNotGarbage) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  // A v1 peer: bare length prefix, no magic.
  ASSERT_TRUE(WriteLegacyFrame(sv[0], EncodeLegacyRequest(Request{}), 1'000)
                  .ok());
  int peer_version = 0;
  auto r = ReadFrame(sv[1], 1'000, kMaxFrameBytes, &peer_version);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsVersionMismatch()) << r.status().ToString();
  EXPECT_EQ(peer_version, 1);
  // The legacy frame was drained: a typed reply can go back and the v1
  // peer can read it with its own framing.
  Response resp;
  resp.code = StatusCode::kUnsupported;
  resp.message = "version mismatch";
  ASSERT_TRUE(WriteLegacyFrame(sv[1], EncodeLegacyResponse(resp), 1'000).ok());
  auto back_payload = ReadLegacyFrame(sv[0], 1'000);
  ASSERT_TRUE(back_payload.ok());
  auto back = DecodeLegacyResponse(*back_payload);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->code, StatusCode::kUnsupported);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(WireVersionTest, FutureVersionIsTypedMismatch) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  std::string frame = FrameBytes(EncodeRequest(Request{}));
  frame[3] = 3;  // a v3 peer
  ASSERT_EQ(::send(sv[0], frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  int peer_version = 0;
  auto r = ReadFrame(sv[1], 1'000, kMaxFrameBytes, &peer_version);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsVersionMismatch());
  EXPECT_EQ(peer_version, 3);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST_F(ServerTest, ServerAnswersLegacyClientInLegacyFraming) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", sock_.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  Request req;
  req.statement = "retrieve ( 1 )";
  ASSERT_TRUE(WriteLegacyFrame(fd, EncodeLegacyRequest(req), 1'000).ok());
  auto payload = ReadLegacyFrame(fd, 5'000);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto resp = DecodeLegacyResponse(*payload);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->code, StatusCode::kUnsupported);
  EXPECT_NE(resp->message.find("version"), std::string::npos)
      << resp->message;
  // The mismatched connection is closed; the server keeps serving v2.
  auto next = ReadLegacyFrame(fd, 2'000);
  EXPECT_FALSE(next.ok());
  ::close(fd);
  EXPECT_GE(CounterValue("server.requests.version_mismatch"), 1);
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ(client->Ping()->code, StatusCode::kOk);
  server.Shutdown();
}

TEST_F(ServerTest, ServerAnswersFutureVersionWithV2Mismatch) {
  Server server(Opts());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  std::string frame = FrameBytes(EncodeRequest(Request{}));
  frame[3] = 9;
  ASSERT_EQ(::send(client->fd(), frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  auto payload = ReadFrame(client->fd(), 5'000);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  auto resp = DecodeResponse(*payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->code, StatusCode::kVersionMismatch);
  server.Shutdown();
}

// --- socket I/O hardening ---------------------------------------------------

namespace eintr_detail {
void NoopHandler(int) {}
}  // namespace eintr_detail

TEST(WireRobustnessTest, ReadFrameSurvivesSignalInterruption) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  struct sigaction sa {};
  sa.sa_handler = eintr_detail::NoopHandler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately NOT SA_RESTART: syscalls see EINTR
  struct sigaction old {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  Result<std::string> got = Status::Internal("unset");
  std::thread reader([&] { got = ReadFrame(sv[1], 10'000); });
  // Pepper the blocked reader with signals, then complete the frame.
  for (int i = 0; i < 20; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_TRUE(WriteFrame(sv[0], EncodeRequest(Request{}), 1'000).ok());
  reader.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(DecodeRequest(*got).ok());
  sigaction(SIGUSR1, &old, nullptr);
  ::close(sv[0]);
  ::close(sv[1]);
}

TEST(WireRobustnessTest, WriteToClosedPeerIsStatusNotSigpipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  // Big enough to overflow any kernel buffer: the write itself must fail.
  std::string big(1u << 20, 'x');
  Status st = WriteFrame(sv[0], big, 1'000);
  EXPECT_FALSE(st.ok());  // EPIPE as a Status; SIGPIPE would kill the test
  ::close(sv[0]);
}

TEST(RetryHintTest, ComputeRetryHintMsIsClamped) {
  // Cold EMA / empty queue can never tell clients "retry immediately,
  // forever"…
  EXPECT_EQ(ComputeRetryHintMs(0, 0, 4), 1u);
  EXPECT_EQ(ComputeRetryHintMs(1, 0, 8), 1u);
  // …and a pathological backlog can never park them for minutes.
  EXPECT_EQ(ComputeRetryHintMs(10'000'000, 1'000, 1), 10'000u);
  // In between, the hint scales with backlog over pool width.
  EXPECT_EQ(ComputeRetryHintMs(2'000, 9, 2), 10u);
  EXPECT_EQ(ComputeRetryHintMs(2'000, 9, 1), 20u);
  // Zero workers is treated as one, not a division crash.
  EXPECT_GE(ComputeRetryHintMs(2'000, 9, 0), 1u);
}

// --- reliability layer + chaos ----------------------------------------------

/// Injects one wire fault at a chosen statement-response send.
class FaultOnceHooks : public ServerHooks {
 public:
  FaultOnceHooks(uint64_t at, WireFault mode) : at_(at), mode_(mode) {}
  WireFault OnWireSend(uint64_t idx) override {
    return idx == at_ ? mode_ : WireFault::kNone;
  }

 private:
  uint64_t at_;
  WireFault mode_;
};

TEST_F(ServerTest, DuplicateAckIsDiscardedByReqIdAndClientRecovers) {
  FaultOnceHooks hooks(0, ServerHooks::WireFault::kDuplicateAck);
  ServerOptions opts = Opts();
  opts.hooks = &hooks;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::ConnectUnix(sock_);
  ASSERT_TRUE(client.ok());
  // Send 0 is duplicated (and the connection then dropped): the first copy
  // answers this request…
  auto first = client->Execute("append 1 to Nums");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->code, StatusCode::kOk);
  // …the second copy is a stale req_id the retrying reader discards after
  // reconnecting past the dropped connection.
  auto second = client->ExecuteRetried("retrieve ( count(Nums) )",
                                       /*deadline_ms=*/5'000, "",
                                       /*idempotent=*/true);
  ASSERT_TRUE(second.transport.ok()) << second.transport.ToString();
  EXPECT_EQ(second.resp.code, StatusCode::kOk) << second.resp.message;
  EXPECT_EQ(second.resp.result, "1");
  EXPECT_EQ(second.applied, Applied::kDefinitely);
  EXPECT_GE(second.reconnects, 1);
  EXPECT_GE(CounterValue("client.reconnect.attempts"), 1);
  server.Shutdown();
}

TEST_F(ServerTest, RetriedCommitAfterLostAckResolvesByToken) {
  // The ack of send 2 (the commit of begin/append/commit) executes, then
  // the connection dies without delivering it — the canonical retried-
  // commit scenario.
  FaultOnceHooks hooks(2, ServerHooks::WireFault::kDropBeforeAck);
  ServerOptions opts = Opts();
  opts.hooks = &hooks;
  Server server(opts);
  ASSERT_TRUE(server.ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server.Start().ok());
  auto connected = Client::ConnectUnix(sock_, /*timeout_ms=*/200);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);
  auto begun = client.Begin(5'000);
  ASSERT_TRUE(begun.transport.ok());
  ASSERT_EQ(begun.resp.code, StatusCode::kOk);
  auto appended = client.Execute("append 21 to Nums");
  ASSERT_TRUE(appended.ok());
  ASSERT_EQ(appended->code, StatusCode::kOk);
  auto committed = client.Commit("lost-ack-tok", 10'000);
  ASSERT_TRUE(committed.transport.ok()) << committed.transport.ToString();
  ASSERT_EQ(committed.resp.code, StatusCode::kOk) << committed.resp.message;
  EXPECT_EQ(committed.applied, Applied::kResolvedByToken);
  EXPECT_GE(committed.reconnects, 1);
  // Exactly once, not zero, not two.
  auto count = client.Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->result, "1");
  server.Shutdown();
}

/// Faults every Nth statement-response send, cycling through the modes.
class PeriodicFaultHooks : public ServerHooks {
 public:
  explicit PeriodicFaultHooks(uint64_t every) : every_(every) {}
  WireFault OnWireSend(uint64_t idx) override {
    if (idx == 0 || idx % every_ != 0) return WireFault::kNone;
    static constexpr WireFault kModes[] = {
        WireFault::kDropBeforeAck,
        WireFault::kDropAfterAck,
        WireFault::kTornAck,
        WireFault::kDuplicateAck,
    };
    return kModes[(idx / every_) % 4];
  }

 private:
  uint64_t every_;
};

// The acceptance scenario: a live retrying client completes a transactional
// workload against a server whose connections keep getting killed, and the
// final state equals the no-fault reference (every group exactly once).
TEST_F(ServerTest, RetryingClientCompletesTxnWorkloadUnderConnectionChaos) {
  PeriodicFaultHooks hooks(/*every=*/4);
  ServerOptions opts = Opts();
  opts.hooks = &hooks;
  opts.db_path = (dir_ / "chaos.db").string();
  auto server = std::make_unique<Server>(opts);
  ASSERT_TRUE(server->ExecuteLocal("create Nums: { int4 }").ok());
  ASSERT_TRUE(server->Start().ok());

  auto connected = Client::ConnectUnix(sock_, /*timeout_ms=*/500);
  ASSERT_TRUE(connected.ok());
  Client client = std::move(*connected);
  constexpr int kGroups = 8;
  for (int g = 1; g <= kGroups; ++g) {
    std::string token = "chaos-" + std::to_string(g);
    bool done = false;
    for (int attempt = 0; attempt < 10 && !done; ++attempt) {
      if (!client.connected() && !client.Reconnect().ok()) continue;
      auto begun = client.Begin(5'000);
      if (!begun.transport.ok() || begun.resp.code != StatusCode::kOk) {
        client.Close();
        continue;
      }
      // Single-shot inside the transaction: a retried append would run
      // outside the (dead, reaped) transaction. Any hiccup abandons the
      // attempt; the reaper keeps the half-group from committing.
      auto appended =
          client.Execute("append " + std::to_string(g) + " to Nums", 5'000);
      if (!appended.ok() || appended->code != StatusCode::kOk) {
        client.Close();
        continue;
      }
      auto committed = client.Commit(token, 10'000);
      if (committed.transport.ok() &&
          committed.resp.code == StatusCode::kOk) {
        done = true;  // kDefinitely or kResolvedByToken: applied exactly once
      } else {
        client.Close();  // definitely-not (or unknown): retry the group
      }
    }
    ASSERT_TRUE(done) << "group " << g << " never committed";
  }
  server->Shutdown();
  server.reset();

  // Reference state: every group exactly once, same as a fault-free run.
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage((dir_ / "chaos.db").string()).ok());
  for (int g = 1; g <= kGroups; ++g) {
    auto r = s.Execute("retrieve ( count(x from x in Nums where x = " +
                       std::to_string(g) + ") )");
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(*r != nullptr && (*r)->IsNumeric());
    EXPECT_EQ((*r)->as_int(), 1) << "group " << g;
  }
  auto total = s.Execute("retrieve ( count(Nums) )");
  ASSERT_TRUE(total.ok());
  ASSERT_TRUE(*total != nullptr && (*total)->IsNumeric());
  EXPECT_EQ((*total)->as_int(), kGroups);
}

}  // namespace
}  // namespace server
}  // namespace excess
