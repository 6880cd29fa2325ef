// The durable storage engine (src/storage/): snapshot/WAL codecs, torn-tail
// recovery, the session commit protocol (`open`, `checkpoint`,
// EXCESS_DB_PATH), strict env-knob parsing, post-failure on-disk
// invariants, and persistence of the university fixture with corpus-query
// differential replay against the recovered database.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "excess/session.h"
#include "methods/registry.h"
#include "objects/database.h"
#include "objects/value.h"
#include "storage/engine.h"
#include "storage/serialize.h"
#include "storage/wal.h"
#include "university/university.h"
#include "util/env.h"
#include "util/fileio.h"

namespace excess {
namespace storage {
namespace {

namespace fs = std::filesystem;

ValuePtr I(int64_t v) { return Value::Int(v); }

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("excess_storage_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    ::unsetenv("EXCESS_DB_PATH");
    ::setenv("EXCESS_WAL_FSYNC", "0", 1);
  }
  void TearDown() override {
    fs::remove_all(dir_);
    ::unsetenv("EXCESS_WAL_FSYNC");
    ::unsetenv("EXCESS_DB_PATH");
  }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  fs::path dir_;
};

// --- value / schema codec ---------------------------------------------------

ValuePtr RoundTrip(const ValuePtr& v) {
  Writer w;
  EncodeValue(v, &w);
  Reader r(w.bytes());
  auto back = DecodeValue(&r);
  EXPECT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(r.done());
  return back.ok() ? *back : nullptr;
}

TEST(StorageSerialize, ScalarRoundTrips) {
  for (const ValuePtr& v :
       {I(0), I(-7), I(INT64_MAX), Value::Float(2.5), Value::Float(-0.0),
        Value::Str(""), Value::Str(std::string("a\0b", 3)), Value::Str("héllo"),
        Value::Bool(true), Value::Bool(false), Value::Date(7305), Value::Dne(),
        Value::Unk()}) {
    ValuePtr back = RoundTrip(v);
    ASSERT_NE(back, nullptr);
    EXPECT_TRUE(v->Equals(back)) << v->ToString();
  }
}

TEST(StorageSerialize, NestedValueRoundTrip) {
  ValuePtr tup =
      Value::Tuple({"a", "b"}, {I(1), Value::Unk()}, "Tagged");
  ValuePtr v = Value::SetOfCounted(
      {{tup, 3}, {Value::ArrayOf({I(1), I(2)}), 1}});
  ValuePtr back = RoundTrip(v);
  ASSERT_NE(back, nullptr);
  EXPECT_TRUE(v->Equals(back));
  // Multiset cardinalities survive exactly (not expanded to occurrences),
  // and so does the tuple's exact type tag (dispatch metadata).
  EXPECT_EQ(back->CountOf(tup), 3);
  EXPECT_EQ(back->DistinctCount(), 2);
  for (const auto& entry : back->entries()) {
    if (entry.value->is_tuple()) {
      EXPECT_EQ(entry.value->type_tag(), "Tagged");
    }
  }
}

TEST(StorageSerialize, RefValueRoundTrip) {
  Oid oid;
  oid.type_id = 3;
  oid.serial = 41;
  ValuePtr back = RoundTrip(Value::RefTo(oid));
  ASSERT_NE(back, nullptr);
  ASSERT_TRUE(back->is_ref());
  EXPECT_EQ(back->oid(), oid);
}

TEST(StorageSerialize, TruncatedValueNeverCrashes) {
  Writer w;
  EncodeValue(Value::SetOf({I(1), Value::Str("abc"), Value::TupleOf({I(2)})}),
              &w);
  std::string bytes = w.bytes();
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Reader r(bytes.data(), cut);
    auto back = DecodeValue(&r);
    // A failure must be a typed kDataLoss, never a crash or an overrun.
    if (!back.ok()) {
      EXPECT_TRUE(back.status().IsDataLoss()) << back.status().ToString();
    }
  }
}

TEST(StorageSerialize, ImplausibleCountRejected) {
  Writer w;
  w.U32(0x00FFFFFF);  // element count that cannot fit the remaining bytes
  w.U8(1);
  w.U8(2);
  Reader r(w.bytes());
  auto c = r.Count(1);
  ASSERT_FALSE(c.ok());
  EXPECT_TRUE(c.status().IsDataLoss());
}

TEST(StorageSerialize, SchemaRoundTrip) {
  SchemaPtr s = Schema::Set(Schema::Tup({{"k", IntSchema()},
                                         {"r", Schema::Ref("Item")},
                                         {"xs", Schema::Arr(FloatSchema())}}));
  Writer w;
  EncodeSchema(s, &w);
  Reader r(w.bytes());
  auto back = DecodeSchema(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(s->ToString(), (*back)->ToString());
}

TEST(StorageSerialize, SnapshotPayloadRoundTripsDatabase) {
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.Execute("define type Pt: ( x: int4, y: int4 )\n"
                        "define type Pt3: ( z: int4 ) inherits Pt\n"
                        "create Nums: { int4 }\n"
                        "append all {1, 2, 2} to Nums")
                  .ok());
  // Interned objects with shared identity must survive byte-for-byte.
  ValuePtr pt = Value::Tuple({"x", "y", "z"}, {I(1), I(2), I(3)}, "Pt3");
  auto oid = db.store().InternRef("Pt3", pt);
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  ASSERT_TRUE(db.CreateNamed("Pts", Schema::Set(Schema::Ref("Pt")),
                             Value::SetOfCounted({{Value::RefTo(*oid), 2}}))
                  .ok());

  SnapshotState state = CaptureDatabase(db, 9, {"range of N is Nums"});
  std::string payload = EncodeSnapshotPayload(state);
  auto decoded = DecodeSnapshotPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 9u);
  ASSERT_EQ(decoded->context.size(), 1u);
  EXPECT_EQ(decoded->context[0], "range of N is Nums");

  Database back;
  ASSERT_TRUE(InstallDatabase(*decoded, &back).ok());
  EXPECT_EQ(CanonicalDatabaseBytes(db), CanonicalDatabaseBytes(back));
  // The restored store resolves the same OID to the same object, and
  // interning the same deep value again finds it instead of minting a new
  // serial — the identity/interning state really came back.
  auto deref = back.store().Deref(*oid);
  ASSERT_TRUE(deref.ok()) << deref.status().ToString();
  EXPECT_TRUE((*deref)->Equals(pt));
  auto again = back.store().InternRef("Pt3", pt);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *oid);
}

TEST(StorageSerialize, RestoredInternKeysShareTheirObjectsFields) {
  // An object updated after creation keeps its creation value as intern
  // key; the two share every field the update left alone. The restore
  // shares them again instead of holding two copies, byte-exactly.
  Database db;
  SchemaPtr pt = Schema::Tup(
      {{"x", IntSchema()}, {"s", Schema::Set(IntSchema())}});
  ASSERT_TRUE(db.catalog().DefineType("Pt", pt).ok());
  ValuePtr tag = Value::SetOf({I(1), I(2)});
  ValuePtr created = Value::Tuple({"x", "s"}, {I(1), tag}, "Pt");
  auto moved = db.store().Create("Pt", created);
  auto same =
      db.store().Create("Pt", Value::Tuple({"x", "s"}, {I(7), tag}, "Pt"));
  ASSERT_TRUE(moved.ok() && same.ok());
  ASSERT_TRUE(db.store()
                  .Update(*moved, Value::Tuple({"x", "s"}, {I(5), tag}, "Pt"))
                  .ok());

  SnapshotState state = CaptureDatabase(db, 1, {});
  std::string payload = EncodeSnapshotPayload(state);
  auto decoded = DecodeSnapshotPayload(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->store.interned.size(), 2u);
  for (const auto& entry : decoded->store.interned) {
    const ValuePtr* object = nullptr;
    for (const auto& obj : decoded->store.objects) {
      if (obj.oid == entry.oid) object = &obj.value;
    }
    ASSERT_NE(object, nullptr);
    if (entry.oid == *same) {
      EXPECT_EQ(entry.key, *object);  // unchanged: one value
    } else {
      EXPECT_NE(entry.key, *object);  // x changed, s still shared
      EXPECT_TRUE(entry.key->Equals(*created));
      EXPECT_EQ(entry.key->field_values()[1], (*object)->field_values()[1]);
    }
  }
  EXPECT_EQ(EncodeSnapshotPayload(*decoded), payload);
  Database back;
  ASSERT_TRUE(InstallDatabase(*decoded, &back).ok());
  EXPECT_EQ(CanonicalDatabaseBytes(db), CanonicalDatabaseBytes(back));
}

TEST(StorageSerialize, CorruptSnapshotPayloadIsDataLoss) {
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.Execute("create Nums: { int4 }\nappend 1 to Nums").ok());
  std::string payload = EncodeSnapshotPayload(CaptureDatabase(db, 1, {}));
  for (size_t cut = 0; cut + 1 < payload.size(); ++cut) {
    auto r = DecodeSnapshotPayload(payload.substr(0, cut));
    if (!r.ok()) {
      EXPECT_TRUE(r.status().IsDataLoss()) << cut;
    }
  }
}

// --- WAL scan ----------------------------------------------------------------

std::string WalWithRecords(const std::vector<WalRecord>& recs) {
  std::string bytes = "EXWAL001";
  for (const auto& r : recs) bytes += EncodeWalRecord(r);
  return bytes;
}

WalRecord Rec(uint64_t lsn, const std::string& source) {
  WalRecord r;
  r.lsn = lsn;
  r.source = source;
  return r;
}

TEST(WalScan, RoundTripAndFlags) {
  WalRecord r = Rec(5, "append 1 to Nums");
  r.optimize = false;
  r.context = true;
  auto scan = ScanWalBytes(WalWithRecords({r}));
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].source, "append 1 to Nums");
  EXPECT_EQ(scan->records[0].lsn, 5u);
  EXPECT_FALSE(scan->records[0].optimize);
  EXPECT_TRUE(scan->records[0].context);
  EXPECT_FALSE(scan->torn_tail);
}

TEST(WalScan, EveryTruncationKeepsTheIntactPrefix) {
  std::string bytes = WalWithRecords({Rec(1, "a"), Rec(2, "bb")});
  for (size_t cut = 8; cut < bytes.size(); ++cut) {
    auto scan = ScanWalBytes(bytes.substr(0, cut));
    ASSERT_TRUE(scan.ok()) << cut;
    EXPECT_LE(scan->valid_bytes, cut) << cut;
    EXPECT_LE(scan->records.size(), 2u) << cut;
    // A cut mid-record discards exactly that record as a torn tail; a cut
    // on a record boundary is not torn at all.
    EXPECT_EQ(scan->torn_tail, scan->valid_bytes != cut) << cut;
  }
}

TEST(WalScan, BadMagicIsDataLoss) {
  std::string bytes = WalWithRecords({Rec(1, "a")});
  bytes[0] = 'X';
  auto scan = ScanWalBytes(bytes);
  ASSERT_FALSE(scan.ok());
  EXPECT_TRUE(scan.status().IsDataLoss());
}

TEST(WalScan, LsnGapStopsScan) {
  auto scan = ScanWalBytes(WalWithRecords({Rec(1, "a"), Rec(3, "c")}));
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);  // the gap record becomes the tail
  EXPECT_TRUE(scan->torn_tail);
}

TEST(WalScan, CorruptedPayloadDropsSuffix) {
  std::string bytes = WalWithRecords({Rec(1, "aaaa"), Rec(2, "bbbb")});
  bytes[bytes.size() - 2] ^= 0x40;  // flip a bit inside record 2's payload
  auto scan = ScanWalBytes(bytes);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->records.size(), 1u);
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_GT(scan->discarded_bytes, 0u);
}

// --- session commit protocol -------------------------------------------------

TEST_F(StorageTest, PersistsAcrossReopenWithoutCheckpoint) {
  const std::string path = Path("db.exdb");
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    ASSERT_TRUE(s.Execute("open \"" + path + "\"").ok());
    ASSERT_TRUE(s.has_storage());
    ASSERT_TRUE(s.Execute("create Nums: { int4 }\n"
                          "append all {1, 2, 2} to Nums\n"
                          "delete Nums where Nums = 1\n"
                          "retrieve (x + 10) from x in Nums into Shifted")
                    .ok());
  }  // session dies without checkpoint — recovery must replay the WAL
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(path).ok());
  EXPECT_EQ(s.last_recovery().snapshot_seq, 0u);
  EXPECT_EQ(s.last_recovery().replayed, 4u);
  auto nums = db.NamedValue("Nums");
  ASSERT_TRUE(nums.ok());
  EXPECT_EQ((*nums)->TotalCount(), 2);
  EXPECT_EQ((*nums)->CountOf(I(2)), 2);
  auto shifted = db.NamedValue("Shifted");
  ASSERT_TRUE(shifted.ok());
  EXPECT_EQ((*shifted)->CountOf(I(12)), 2);
}

TEST_F(StorageTest, CheckpointFoldsWalIntoSnapshot) {
  const std::string path = Path("db.exdb");
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    ASSERT_TRUE(s.OpenStorage(path).ok());
    ASSERT_TRUE(s.Execute("create Nums: { int4 }\n"
                          "append 4 to Nums\n"
                          "checkpoint")
                    .ok());
    ASSERT_TRUE(s.Execute("append 5 to Nums").ok());
  }
  // The snapshot covers 2 statements; only the append after the checkpoint
  // replays from the WAL.
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(path).ok());
  EXPECT_EQ(s.last_recovery().snapshot_seq, 2u);
  EXPECT_EQ(s.last_recovery().replayed, 1u);
  auto nums = db.NamedValue("Nums");
  ASSERT_TRUE(nums.ok());
  EXPECT_EQ((*nums)->TotalCount(), 2);
}

TEST_F(StorageTest, ContextStatementsSurviveReopen) {
  const std::string path = Path("db.exdb");
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    ASSERT_TRUE(s.OpenStorage(path).ok());
    auto r = s.Execute("define type Pt: ( x: int4 )\n"
                       "create Nums: { int4 }\n"
                       "append all {1, 2} to Nums\n"
                       "range of N is Nums\n"
                       "define Pt function dbl () returns int4 {"
                       " retrieve (this.x * 2) }\n"
                       "checkpoint");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(path).ok());
  // The range binding came back through the snapshot's context statements…
  ASSERT_EQ(s.ranges().size(), 1u);
  EXPECT_EQ(s.ranges()[0].first, "N");
  auto r = s.Execute("retrieve (N + 1)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->CountOf(I(2)), 1);
  // …and so did the method definition.
  EXPECT_TRUE(methods.Has("Pt", "dbl"));
}

TEST_F(StorageTest, OpenAndCheckpointStatementErrors) {
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  EXPECT_FALSE(s.Execute("open 42").ok());
  EXPECT_FALSE(s.Execute("open").ok());
  EXPECT_FALSE(s.Execute("checkpoint").ok());  // nothing open yet
}

TEST_F(StorageTest, SecondOpenRejected) {
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(Path("a.exdb")).ok());
  auto r = s.Execute("open \"" + Path("b.exdb") + "\"");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("one durable database"),
            std::string::npos)
      << r.status().ToString();
}

TEST_F(StorageTest, PlainRetrieveAndExplainAreNotLogged) {
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(Path("db.exdb")).ok());
  ASSERT_TRUE(s.Execute("create Nums: { int4 }\nappend 1 to Nums").ok());
  uint64_t lsn = s.next_durable_lsn();
  ASSERT_TRUE(s.Execute("retrieve (x) from x in Nums").ok());
  ASSERT_TRUE(s.Execute("explain retrieve (x) from x in Nums").ok());
  EXPECT_EQ(s.next_durable_lsn(), lsn);
}

TEST_F(StorageTest, EnvDbPathAutoOpens) {
  const std::string path = Path("env.exdb");
  ::setenv("EXCESS_DB_PATH", path.c_str(), 1);
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    ASSERT_TRUE(s.Execute("create Nums: { int4 }\nappend 3 to Nums").ok());
    EXPECT_TRUE(s.has_storage());
  }
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    auto r = s.Execute("retrieve (x) from x in Nums");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ((*r)->CountOf(I(3)), 1);
  }
  ::unsetenv("EXCESS_DB_PATH");
}

TEST_F(StorageTest, FailedCommitLeavesMemoryAndDiskAtPriorState) {
  // After a storage error on any mutating statement kind, the in-memory
  // state rolls back and a fresh recovery of the on-disk database equals
  // the pre-statement state — the session-after-failure invariant.
  struct FailAppend : StorageHooks {
    bool fail = false;
    bool OnWalAppend(size_t, int64_t* partial) override {
      if (fail) *partial = 3;  // leave a torn fragment, too
      return !fail;
    }
  };
  const std::string path = Path("db.exdb");
  FailAppend hooks;
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  s.set_storage_hooks(&hooks);
  ASSERT_TRUE(s.OpenStorage(path).ok());
  ASSERT_TRUE(s.Execute("define type Pt: ( x: int4 )\n"
                        "create Nums: { int4 }\n"
                        "append all {1, 2} to Nums")
                  .ok());
  std::string before = CanonicalDatabaseBytes(db);

  const char* kStatements[] = {
      "append 9 to Nums",
      "delete Nums where Nums = 1",
      "retrieve (x) from x in Nums into Copy",
      "create Other: { int4 }",
      "define type Q: ( y: int4 ) inherits Pt",
      "range of N is Nums",
      "define Pt function dbl () returns int4 { retrieve (this.x * 2) }",
  };
  for (const char* stmt : kStatements) {
    hooks.fail = true;
    auto r = s.Execute(stmt);
    hooks.fail = false;
    ASSERT_FALSE(r.ok()) << stmt;
    EXPECT_TRUE(r.status().IsDataLoss()) << r.status().ToString();
    // In-memory rollback: nothing of the failed statement is visible.
    EXPECT_EQ(CanonicalDatabaseBytes(db), before) << stmt;
    EXPECT_FALSE(db.HasNamed("Copy"));
    EXPECT_FALSE(db.HasNamed("Other"));
    EXPECT_FALSE(db.catalog().HasType("Q"));
    EXPECT_TRUE(s.ranges().empty());
    EXPECT_FALSE(methods.Has("Pt", "dbl"));
    // On-disk: a fresh recovery sees exactly the pre-statement state.
    Database db2;
    MethodRegistry methods2(&db2.catalog());
    Session s2(&db2, &methods2);
    ASSERT_TRUE(s2.OpenStorage(path).ok()) << stmt;
    EXPECT_EQ(CanonicalDatabaseBytes(db2), before) << stmt;
  }
  // The session stays usable: each failed append truncated the WAL back to
  // a record boundary, so the next commit lands cleanly.
  ASSERT_TRUE(s.Execute("append 7 to Nums").ok());
  Database db3;
  MethodRegistry methods3(&db3.catalog());
  Session s3(&db3, &methods3);
  ASSERT_TRUE(s3.OpenStorage(path).ok());
  auto nums = db3.NamedValue("Nums");
  ASSERT_TRUE(nums.ok());
  EXPECT_EQ((*nums)->CountOf(I(7)), 1);
}

TEST_F(StorageTest, ReplayRemembersPerStatementOptimizeFlag) {
  const std::string path = Path("db.exdb");
  {
    Database db;
    MethodRegistry methods(&db.catalog());
    Session::Options o;
    o.optimize = false;  // log records must remember this
    Session s(&db, &methods, o);
    ASSERT_TRUE(s.OpenStorage(path).ok());
    ASSERT_TRUE(s.Execute("create Nums: { int4 }\n"
                          "append all {5, 6} to Nums\n"
                          "retrieve (x) from x in Nums where x > 5 into Big")
                    .ok());
  }
  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);  // the replaying session defaults to optimize=on
  ASSERT_TRUE(s.OpenStorage(path).ok());
  auto big = db.NamedValue("Big");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ((*big)->TotalCount(), 1);
  EXPECT_EQ((*big)->CountOf(I(6)), 1);
}

// --- university fixture: checkpoint, kill, reopen, corpus differential ------

TEST_F(StorageTest, UniversityFixtureSurvivesKillAndReopen) {
  const std::string path = Path("uni.exdb");
  UniversityParams params;
  params.num_employees = 20;
  params.num_students = 30;
  std::string before;
  {
    Database db;
    ASSERT_TRUE(BuildUniversity(&db, params).ok());
    MethodRegistry methods(&db.catalog());
    Session s(&db, &methods);
    // Opening a fresh path adopts the fixture as the initial snapshot.
    ASSERT_TRUE(s.OpenStorage(path).ok());
    ASSERT_TRUE(s.Execute("retrieve (Employees.name) where "
                          "Employees.salary >= 100000 into RichNames")
                    .ok());
    ASSERT_TRUE(s.Execute("checkpoint").ok());
    ASSERT_TRUE(s.Execute("retrieve (Students.gpa) where "
                          "Students.gpa > 3.0 into HighGpas")
                    .ok());
    before = CanonicalDatabaseBytes(db);
  }  // "kill": no final checkpoint, HighGpas lives only in the WAL

  Database db;
  MethodRegistry methods(&db.catalog());
  Session s(&db, &methods);
  ASSERT_TRUE(s.OpenStorage(path).ok());
  EXPECT_EQ(s.last_recovery().replayed, 1u);
  EXPECT_EQ(CanonicalDatabaseBytes(db), before);
  EXPECT_TRUE(db.HasNamed("RichNames"));
  EXPECT_TRUE(db.HasNamed("HighGpas"));

  // Corpus differential replay: every `-- expect: ok` corpus program runs
  // on top of the *recovered* state with the optimizer on and off; result
  // values and the resulting database must agree.
  SnapshotState recovered = CaptureDatabase(db, 0, {});
  int replayed = 0;
  for (const auto& entry : fs::directory_iterator(EXCESS_CORPUS_DIR)) {
    if (entry.path().extension() != ".excess") continue;
    auto source = util::ReadFile(entry.path().string());
    ASSERT_TRUE(source.ok()) << entry.path();
    if (source->rfind("-- expect: ok", 0) != 0) continue;
    ++replayed;
    Result<ValuePtr> results[2] = {Result<ValuePtr>(nullptr),
                                   Result<ValuePtr>(nullptr)};
    std::string states[2];
    for (int opt = 0; opt < 2; ++opt) {
      Database dbv;
      ASSERT_TRUE(InstallDatabase(recovered, &dbv).ok());
      MethodRegistry mv(&dbv.catalog());
      Session::Options o;
      o.optimize = opt == 1;
      Session sv(&dbv, &mv, o);
      results[opt] = sv.Execute(*source);
      states[opt] = CanonicalDatabaseBytes(dbv);
    }
    ASSERT_EQ(results[0].ok(), results[1].ok()) << entry.path();
    EXPECT_EQ(states[0], states[1]) << entry.path();
    if (results[0].ok() && *results[0] != nullptr) {
      ASSERT_NE(*results[1], nullptr) << entry.path();
      EXPECT_TRUE((*results[0])->Equals(*results[1])) << entry.path();
    }
  }
  EXPECT_GE(replayed, 3);
}

// --- strict env knobs --------------------------------------------------------

TEST(EnvKnobs, StrictParseRejectsJunk) {
  EXPECT_EQ(util::ParseEnvInt("4", 0, 100, 9), 4);
  EXPECT_EQ(util::ParseEnvInt("0", 0, 100, 9), 0);
  EXPECT_EQ(util::ParseEnvInt("100", 0, 100, 9), 100);
  // Everything else falls back whole — a knob never half-applies.
  EXPECT_EQ(util::ParseEnvInt(nullptr, 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt(" 4", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("4 ", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("+4", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("-1", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("4x", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("0x10", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("101", 0, 100, 9), 9);
  EXPECT_EQ(util::ParseEnvInt("99999999999999999999999", 0, 100, 9), 9);
}

TEST(EnvKnobs, WalFsyncKnobIsStrict) {
  // EXCESS_WAL_FSYNC accepts exactly "0" or "1"; junk means the default
  // (fsync on). Observed through the same util::EnvInt call the session
  // makes when opening storage.
  ::setenv("EXCESS_WAL_FSYNC", "0", 1);
  EXPECT_EQ(util::EnvInt("EXCESS_WAL_FSYNC", 0, 1, 1), 0);
  ::setenv("EXCESS_WAL_FSYNC", "2", 1);
  EXPECT_EQ(util::EnvInt("EXCESS_WAL_FSYNC", 0, 1, 1), 1);
  ::setenv("EXCESS_WAL_FSYNC", "no", 1);
  EXPECT_EQ(util::EnvInt("EXCESS_WAL_FSYNC", 0, 1, 1), 1);
  ::unsetenv("EXCESS_WAL_FSYNC");
  EXPECT_EQ(util::EnvInt("EXCESS_WAL_FSYNC", 0, 1, 1), 1);
}

TEST(EnvKnobs, DbPathKnobIsPlainString) {
  ::setenv("EXCESS_DB_PATH", "/tmp/x.exdb", 1);
  EXPECT_EQ(util::EnvString("EXCESS_DB_PATH"), "/tmp/x.exdb");
  ::setenv("EXCESS_DB_PATH", "", 1);
  EXPECT_EQ(util::EnvString("EXCESS_DB_PATH"), "");
  ::unsetenv("EXCESS_DB_PATH");
  EXPECT_EQ(util::EnvString("EXCESS_DB_PATH"), "");
}

}  // namespace
}  // namespace storage
}  // namespace excess
