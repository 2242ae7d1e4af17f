// rql_serverd end-to-end: session lifecycle over the wire protocol,
// admission-control rejection, cooperative cancellation mid-run (store
// left fully reusable), prepared statements with per-session AS OF plan
// state, idle-session reaping, kRunDone's measured wall time, and the
// concurrency gates — four socket clients running staggered CollateData
// intervals concurrently, byte-identical to an in-process sequential
// oracle, with the shared scan cache showing actual cross-run sharing;
// and the other three mechanisms served on the fast profile, byte-
// identical to the paper-faithful oracle; and the served memo — reuse
// across sessions, token invalidation by an owner write, truncation and
// concurrent publishers, each byte-identical to the oracle; and a session
// keeping its last result table — kept on an identical rerun, re-folded
// after any change, refused inside a client's open metadata transaction.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "rql/rql.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/database.h"
#include "sql/fingerprint.h"
#include "sql/heap_table.h"
#include "storage/env.h"
#include "storage/latency_env.h"

namespace rql::server {
namespace {

using sql::Row;
using sql::Value;

std::string UniqueSocketPath() {
  static std::atomic<int> counter{0};
  return "/tmp/rql_server_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Owner databases + a history: table t(k, v), 600 rows, `snapshots`
/// snapshots each bumping v on a sliding key subset (the
/// shared_scan_cache_test fixture shape). The files live behind a
/// simulated archive device, with no latency until a test sets one.
struct HistoryFixture {
  std::unique_ptr<storage::InMemoryEnv> env =
      std::make_unique<storage::InMemoryEnv>();
  std::unique_ptr<storage::ReadLatencyEnv> slow =
      std::make_unique<storage::ReadLatencyEnv>(env.get());
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;
  retro::SnapshotId last_snap = retro::kNoSnapshot;
};

HistoryFixture MakeHistory(int snapshots) {
  HistoryFixture f;
  auto data = sql::Database::Open(f.slow.get(), "data");
  auto meta = sql::Database::Open(f.slow.get(), "meta");
  EXPECT_TRUE(data.ok() && meta.ok());
  f.data = std::move(*data);
  f.meta = std::move(*meta);
  f.engine = std::make_unique<RqlEngine>(f.data.get(), f.meta.get());
  EXPECT_TRUE(f.engine->EnsureSnapIds().ok());
  EXPECT_TRUE(f.data->Exec("CREATE TABLE t (k INTEGER, v INTEGER)").ok());
  for (int k = 0; k < 600; ++k) {
    EXPECT_TRUE(
        f.data->AppendRow("t", {Value::Integer(k), Value::Integer(k * 10)})
            .ok());
  }
  for (int s = 0; s < snapshots; ++s) {
    EXPECT_TRUE(f.data->Exec("BEGIN").ok());
    EXPECT_TRUE(f.data
                    ->Exec("UPDATE t SET v = v + 1 WHERE k % 37 = " +
                           std::to_string(s % 37))
                    .ok());
    auto snap = f.engine->CommitWithSnapshot("ts-" + std::to_string(s));
    EXPECT_TRUE(snap.ok());
    if (snap.ok()) f.last_snap = *snap;
  }
  return f;
}

std::string QsRange(retro::SnapshotId first, retro::SnapshotId last) {
  return "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
         std::to_string(first) + " AND snap_id <= " + std::to_string(last) +
         " ORDER BY snap_id";
}

constexpr char kQq[] = "SELECT k, v FROM t WHERE v % 3 = 0";

std::vector<std::string> EncodeRows(const sql::QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const Row& row : result.rows) out.push_back(sql::EncodeRow(row));
  return out;
}

/// Polls until `server` has no active session (disconnect teardown is
/// asynchronous w.r.t. the client's close).
void WaitForNoSessions(Server* server) {
  for (int i = 0; i < 200 && server->active_sessions() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server->active_sessions(), 0);
}

TEST(ServerTest, SessionLifecycle) {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_GT((*client)->session_id(), 0u);
  EXPECT_EQ((*server)->active_sessions(), 1);

  // Snapshot read over the attached handle, byte-identical to a local
  // query on the owning handle.
  const std::string read = "SELECT AS OF 3 k, v FROM t WHERE k < 40";
  auto remote = (*client)->Sql(read);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  auto local = f.data->Query(read);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(EncodeRows(*remote), EncodeRows(*local));

  // Snapshot declaration goes through the owning engine and lands in the
  // canonical SnapIds every session sees.
  auto snap = (*client)->DeclareSnapshot("from-wire");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, f.last_snap + 1);
  auto snaps = (*client)->ListSnapshots();
  ASSERT_TRUE(snaps.ok());
  EXPECT_EQ(snaps->rows.size(), static_cast<size_t>(f.last_snap) + 1);

  // A scheduled run: mechanism result lands in the session's private
  // metadata database, readable via kMetaSql.
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();
  EXPECT_EQ(done->iterations, static_cast<uint32_t>(f.last_snap));
  auto out = (*client)->MetaSql("SELECT COUNT(*) FROM Out");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_GT(out->rows[0][0].AsInt(), 0);

  // Schema listing reads the always-fresh owner catalog.
  auto tables = (*client)->ListSchema(false);
  ASSERT_TRUE(tables.ok());
  ASSERT_EQ(tables->rows.size(), 1u);
  EXPECT_EQ(tables->rows[0][0].ToString(), "t");

  // The default server serves the fast profile, and says so; embedded
  // engines stay paper-faithful.
  EXPECT_EQ(RqlOptions{}.profile, RqlProfile::kPaperFaithful);
  auto stats = (*client)->StatsJson();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("\"active_sessions\": 1"), std::string::npos);
  EXPECT_NE(stats->find("\"scheduler\""), std::string::npos);
  EXPECT_NE(stats->find("\"engine\": {\"profile\": \"fast\"}"),
            std::string::npos)
      << *stats;

  client->reset();  // goodbye
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, CancelMidRunLeavesStoreReusable) {
  HistoryFixture f = MakeHistory(12);
  // Make every iteration pay real (simulated) archive latency so the run
  // is reliably still executing when the cancel lands.
  f.slow->set_read_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok());
  ASSERT_TRUE((*client)->CancelRun(*run).ok());
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->status.code(), StatusCode::kAborted)
      << done->status.ToString();

  // Cancelling an unknown run id is a clean NotFound, not a hang.
  Status missing = (*client)->CancelRun(999999);
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);

  // The store must be fully reusable after the abort: the same session
  // runs the same mechanism to completion and the result matches the
  // sequential in-process oracle.
  f.slow->set_read_latency_us(0);
  run = (*client)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(run.ok());
  done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();
  auto remote_rows = (*client)->MetaSql("SELECT * FROM Out");
  ASSERT_TRUE(remote_rows.ok());

  ASSERT_TRUE(f.engine->CollateData(QsRange(1, f.last_snap), kQq, "Oracle")
                  .ok());
  auto oracle = f.meta->Query("SELECT * FROM Oracle");
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(EncodeRows(*remote_rows), EncodeRows(*oracle));

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, DisconnectMidRunReleasesSchedulerSlots) {
  HistoryFixture f = MakeHistory(12);
  f.slow->set_read_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.scheduler.dispatch_threads = 1;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  {
    auto client = Client::Connect(options.socket_path);
    ASSERT_TRUE(client.ok());
    auto run = (*client)->StartRun(Mechanism::kCollateData,
                                   QsRange(1, f.last_snap), kQq, "Out");
    ASSERT_TRUE(run.ok());
    // Disconnect while the run is executing: teardown must cancel it,
    // wait it out of the scheduler and release the session.
  }
  WaitForNoSessions(server->get());
  EXPECT_EQ((*server)->scheduler()->active(), 0);
  EXPECT_EQ((*server)->scheduler()->queued(), 0);

  // The single dispatch thread must be free again for a new session.
  f.slow->set_read_latency_us(0);
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok());
  auto done = (*client)->WaitRun(*run);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done->status.ok()) << done->status.ToString();

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, AdmissionControlRejectsWhenQueueFull) {
  HistoryFixture f = MakeHistory(8);
  f.slow->set_read_latency_us(5000);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.scheduler.dispatch_threads = 1;
  options.scheduler.queue_limit = 1;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto c1 = Client::Connect(options.socket_path);
  auto c2 = Client::Connect(options.socket_path);
  auto c3 = Client::Connect(options.socket_path);
  ASSERT_TRUE(c1.ok() && c2.ok() && c3.ok());

  // Run 1 occupies the only dispatch thread (slow archive); wait until it
  // leaves the queue.
  auto r1 = (*c1)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(r1.ok());
  for (int i = 0; i < 200 && (*server)->scheduler()->active() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ((*server)->scheduler()->active(), 1);

  // Run 2 fills the queue (limit 1); run 3 must be rejected at admission.
  auto r2 = (*c2)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_TRUE(r2.ok());
  auto r3 = (*c3)->StartRun(Mechanism::kCollateData, QsRange(1, f.last_snap),
                            kQq, "Out");
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kAborted);
  EXPECT_NE(r3.status().message().find("admission control"),
            std::string::npos)
      << r3.status().ToString();
  EXPECT_GE((*server)->scheduler()->admission_rejects(), 1);

  // Drain: cancel both admitted runs and wait them out.
  ASSERT_TRUE((*c1)->CancelRun(*r1).ok());
  ASSERT_TRUE((*c2)->CancelRun(*r2).ok());
  auto d1 = (*c1)->WaitRun(*r1);
  auto d2 = (*c2)->WaitRun(*r2);
  ASSERT_TRUE(d1.ok() && d2.ok());
  EXPECT_EQ(d2->status.code(), StatusCode::kAborted);

  c1->reset();
  c2->reset();
  c3->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, PreparedStatementsOverWire) {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  auto stmt = (*client)->Prepare("SELECT v FROM t WHERE k = ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_TRUE((*client)->BindValue(*stmt, 1, Value::Integer(37)).ok());

  // Re-point the same prepared plan at each snapshot via AS OF binding;
  // every execution must match the equivalent one-shot query.
  for (retro::SnapshotId s = 1; s <= f.last_snap; ++s) {
    ASSERT_TRUE((*client)->BindAsOf(*stmt, s).ok());
    auto remote = (*client)->ExecPrepared(*stmt);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    auto local = f.data->Query("SELECT AS OF " + std::to_string(s) +
                               " v FROM t WHERE k = 37");
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(EncodeRows(*remote), EncodeRows(*local)) << "snapshot " << s;
  }
  EXPECT_TRUE((*client)->ClosePrepared(*stmt).ok());
  EXPECT_FALSE((*client)->ExecPrepared(*stmt).ok());

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, IdleSessionIsReaped) {
  HistoryFixture f = MakeHistory(2);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.idle_timeout_us = 150 * 1000;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  EXPECT_EQ((*server)->active_sessions(), 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  WaitForNoSessions(server->get());
  // The reaped connection surfaces as an I/O error on the next request.
  auto result = (*client)->Sql("SELECT AS OF 1 COUNT(*) FROM t");
  EXPECT_FALSE(result.ok());

  (*server)->Stop();
}

TEST(ServerTest, SessionCapacityIsEnforced) {
  HistoryFixture f = MakeHistory(2);
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.max_sessions = 2;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto c1 = Client::Connect(options.socket_path);
  auto c2 = Client::Connect(options.socket_path);
  ASSERT_TRUE(c1.ok() && c2.ok());
  auto c3 = Client::Connect(options.socket_path);
  ASSERT_FALSE(c3.ok());
  EXPECT_EQ(c3.status().code(), StatusCode::kAborted)
      << c3.status().ToString();

  c1->reset();
  c2->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerTest, RunDoneTotalIsMeasuredWallTime) {
  // kRunDone reports the run body's measured wall time, and the engine's
  // published total is a sum of measured phases inside that body: neither
  // can exceed the latency the client observes.
  HistoryFixture f = MakeHistory(6);
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());
  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  const int64_t start = NowMicros();
  auto run = (*client)->StartRun(Mechanism::kCollateData,
                                 QsRange(1, f.last_snap), kQq, "Out");
  ASSERT_TRUE(run.ok());
  auto done = (*client)->WaitRun(*run);
  const int64_t observed = NowMicros() - start;
  ASSERT_TRUE(done.ok());
  ASSERT_TRUE(done->status.ok()) << done->status.ToString();
  retro::MetricsRegistry::Snapshot delta =
      registry.TakeSnapshot().DeltaFrom(before);
  EXPECT_GT(done->total_us, 0);
  EXPECT_LE(done->total_us, observed);
  EXPECT_LE(delta.counter("rql.total_us"), observed);

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

/// The integer `field` of the kStats document's memo section, or -1.
int64_t MemoStat(const std::string& stats_json, const std::string& field) {
  size_t memo = stats_json.find("\"memo\": {");
  if (memo == std::string::npos) return -1;
  size_t at = stats_json.find("\"" + field + "\": ", memo);
  if (at == std::string::npos) return -1;
  return std::stoll(stats_json.substr(at + field.size() + 4));
}

// The concurrency gate: four socket clients, staggered overlapping
// intervals (odd clients descending), concurrent scheduled runs — every
// client's result table byte-identical to a sequential in-process oracle
// computed flag-off on the owning engine, and the store-scoped shared
// cache showing real cross-session sharing.
TEST(ServerConcurrencyTest, FourClientsByteIdenticalToSequentialOracle) {
  constexpr int kClients = 4;
  constexpr int kSpan = 10;
  constexpr int kStagger = 2;
  HistoryFixture f = MakeHistory(16);

  // In-process oracle, sequential, flag-off defaults.
  std::vector<std::vector<std::string>> oracle(kClients);
  for (int i = 0; i < kClients; ++i) {
    std::string qs = QsRange(1 + i * kStagger, i * kStagger + kSpan);
    if (i % 2 == 1) qs += " DESC";
    ASSERT_TRUE(
        f.engine->CollateData(qs, kQq, "Oracle" + std::to_string(i)).ok());
    auto rows = f.meta->Query("SELECT * FROM Oracle" + std::to_string(i));
    ASSERT_TRUE(rows.ok());
    oracle[i] = EncodeRows(*rows);
    ASSERT_FALSE(oracle[i].empty());
  }

  // A registry of its own: kStats then counts this server's memo hits.
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  options.scheduler.dispatch_threads = kClients;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  // The served runs start cold over an archive with one read slot, so
  // their concurrent loads queue behind each other.
  f.data->store()->ClearSnapshotCache();
  f.slow->set_read_latency_us(200);
  f.slow->set_read_slots(1);

  struct ClientRun {
    std::unique_ptr<Client> client;
    std::vector<std::string> rows;
    Status status;
    int64_t shared_hits = 0;
  };
  std::vector<ClientRun> runs(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      ClientRun& r = runs[i];
      auto client = Client::Connect(options.socket_path);
      if (!client.ok()) {
        r.status = client.status();
        return;
      }
      r.client = std::move(*client);
      std::string qs = QsRange(1 + i * kStagger, i * kStagger + kSpan);
      if (i % 2 == 1) qs += " DESC";
      auto run = r.client->StartRun(Mechanism::kCollateData, qs, kQq, "Out");
      if (!run.ok()) {
        r.status = run.status();
        return;
      }
      auto done = r.client->WaitRun(*run);
      if (!done.ok()) {
        r.status = done.status();
        return;
      }
      if (!done->status.ok()) {
        r.status = done->status;
        return;
      }
      r.shared_hits = done->shared_page_hits;
      auto rows = r.client->MetaSql("SELECT * FROM Out");
      if (!rows.ok()) {
        r.status = rows.status();
        return;
      }
      r.rows = EncodeRows(*rows);
    });
  }
  for (std::thread& t : threads) t.join();

  int64_t total_shared_hits = 0;
  for (int i = 0; i < kClients; ++i) {
    ASSERT_TRUE(runs[i].status.ok())
        << "client " << i << ": " << runs[i].status.ToString();
    EXPECT_EQ(runs[i].rows, oracle[i]) << "client " << i;
    total_shared_hits += runs[i].shared_hits;
  }
  // Cross-session sharing actually happened: the staggered intervals
  // overlap heavily, so runs reused each other's work. A run shares either
  // decoded page versions (scan-cache hits) or whole iterations another
  // session published to the served memo (memo hits; such an iteration
  // scans nothing, so which of the two a run gets depends on timing).
  // Every memo hit is another session's: a run visits each snapshot once,
  // so it never probes an entry it published itself.
  auto stats = runs[0].client->StatsJson();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const int64_t memo_hits = MemoStat(*stats, "hits");
  ASSERT_GE(memo_hits, 0);
  EXPECT_GT(total_shared_hits + memo_hits, 0);
  sql::SharedScanCache::Stats cache = (*server)->scan_cache()->GetStats();
  EXPECT_GT(cache.shared_hits + memo_hits, 0);

  for (ClientRun& r : runs) r.client.reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

// Daemon-path byte identity for every mechanism: the three mechanisms
// beside CollateData, each over ascending and descending Qs, run
// concurrently through a default server (fast profile, warm cache) and
// compared against the paper-faithful embedded oracle on the owner
// engine. The served runs must also have taken the fast path.
TEST(ServerConcurrencyTest, AllMechanismsByteIdenticalToPaperFaithfulOracle) {
  HistoryFixture f = MakeHistory(12);
  struct Spec {
    Mechanism mechanism;
    const char* qq;
    const char* extra;
  };
  const Spec kSpecs[] = {
      {Mechanism::kAggregateDataInVariable,
       "SELECT COUNT(*) AS c FROM t WHERE v % 3 = 0", "sum"},
      {Mechanism::kAggregateDataInTable, kQq, "(v,max)"},
      {Mechanism::kCollateDataIntoIntervals, kQq, ""},
  };
  struct Run {
    Spec spec;
    std::string qs;
    std::vector<std::string> oracle;
    std::vector<std::string> rows;
    Status status;
  };
  std::vector<Run> runs;
  for (const Spec& spec : kSpecs) {
    for (bool descending : {false, true}) {
      Run r{spec, QsRange(2, f.last_snap) + (descending ? " DESC" : ""),
            {}, {}, Status::OK()};
      const std::string table = "Oracle" + std::to_string(runs.size());
      Status s;
      switch (spec.mechanism) {
        case Mechanism::kAggregateDataInVariable:
          s = f.engine->AggregateDataInVariable(r.qs, spec.qq, table,
                                                spec.extra);
          break;
        case Mechanism::kAggregateDataInTable:
          s = f.engine->AggregateDataInTable(r.qs, spec.qq, table,
                                             std::string(spec.extra));
          break;
        default:
          s = f.engine->CollateDataIntoIntervals(r.qs, spec.qq, table);
          break;
      }
      ASSERT_TRUE(s.ok()) << table << ": " << s.ToString();
      auto rows = f.meta->Query("SELECT * FROM " + table);
      ASSERT_TRUE(rows.ok());
      r.oracle = EncodeRows(*rows);
      ASSERT_FALSE(r.oracle.empty()) << table;
      runs.push_back(std::move(r));
    }
  }

  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  options.scheduler.dispatch_threads = 4;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  std::vector<std::thread> threads;
  threads.reserve(runs.size());
  for (Run& r : runs) {
    threads.emplace_back([&r, &options] {
      auto client = Client::Connect(options.socket_path);
      if (!client.ok()) {
        r.status = client.status();
        return;
      }
      auto run = (*client)->StartRun(r.spec.mechanism, r.qs, r.spec.qq, "Out",
                                     r.spec.extra);
      if (!run.ok()) {
        r.status = run.status();
        return;
      }
      auto done = (*client)->WaitRun(*run);
      r.status = !done.ok() ? done.status() : done->status;
      if (!r.status.ok()) return;
      auto rows = (*client)->MetaSql("SELECT * FROM Out");
      r.status = rows.status();
      if (rows.ok()) r.rows = EncodeRows(*rows);
    });
  }
  for (std::thread& t : threads) t.join();
  retro::MetricsRegistry::Snapshot delta =
      registry.TakeSnapshot().DeltaFrom(before);

  for (size_t i = 0; i < runs.size(); ++i) {
    ASSERT_TRUE(runs[i].status.ok())
        << "run " << i << ": " << runs[i].status.ToString();
    EXPECT_EQ(runs[i].rows, runs[i].oracle) << "run " << i << ": "
                                            << runs[i].qs;
  }
  // The fast path: a run parses Qq at most once (plan reuse), and not at
  // all when the served memo replayed every iteration; each of the three
  // (mechanism, Qq) pairs executed somewhere, and the plain scans went
  // through the batch path. Every iteration executed or replayed.
  const int64_t n_runs = static_cast<int64_t>(runs.size());
  EXPECT_EQ(delta.counter("rql.runs"), n_runs);
  EXPECT_LE(delta.counter("rql.qq_parse_count"), n_runs);
  EXPECT_GE(delta.counter("rql.qq_parse_count"), 3);
  EXPECT_GT(delta.counter("rql.batches_scanned"), 0);
  EXPECT_EQ(delta.counter("rql.memo_hits") + delta.counter("rql.memo_misses") +
                delta.counter("rql.iterations_skipped"),
            delta.counter("rql.iterations"));

  WaitForNoSessions(server->get());
  (*server)->Stop();
}

// --- the served memo -------------------------------------------------------

/// Embedded paper-faithful CollateData oracle for `qs`, computed on the
/// fixture's owner engine before a server starts.
std::vector<std::string> CollateOracle(HistoryFixture* f,
                                       const std::string& qs,
                                       const std::string& table) {
  EXPECT_TRUE(f->engine->CollateData(qs, kQq, table).ok()) << table;
  auto rows = f->meta->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << table;
  return rows.ok() ? EncodeRows(*rows) : std::vector<std::string>{};
}

/// Runs CollateData(qs, kQq) on `client` into "Out" and returns its rows.
Result<std::vector<std::string>> ServeCollate(Client* client,
                                              const std::string& qs) {
  RQL_ASSIGN_OR_RETURN(uint64_t run,
                       client->StartRun(Mechanism::kCollateData, qs, kQq,
                                        "Out"));
  RQL_ASSIGN_OR_RETURN(Client::RunResult done, client->WaitRun(run));
  RQL_RETURN_IF_ERROR(done.status);
  RQL_ASSIGN_OR_RETURN(sql::QueryResult rows,
                       client->MetaSql("SELECT * FROM Out"));
  return EncodeRows(rows);
}

struct MemoCounts {
  int64_t hits = 0, misses = 0, skipped = 0, iterations = 0;
};

MemoCounts MemoDelta(const retro::MetricsRegistry::Snapshot& delta) {
  return {delta.counter("rql.memo_hits"), delta.counter("rql.memo_misses"),
          delta.counter("rql.iterations_skipped"),
          delta.counter("rql.iterations")};
}

TEST(ServerMemoTest, SecondSessionReplaysFirstSessionsWindow) {
  HistoryFixture f = MakeHistory(12);
  const std::string qs = QsRange(3, 10);
  const std::vector<std::string> oracle = CollateOracle(&f, qs, "Oracle");
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  auto a = Client::Connect(options.socket_path);
  auto b = Client::Connect(options.socket_path);
  ASSERT_TRUE(a.ok() && b.ok());
  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  auto rows_a = ServeCollate(a->get(), qs);
  ASSERT_TRUE(rows_a.ok()) << rows_a.status().ToString();
  EXPECT_EQ(*rows_a, oracle);
  MemoCounts first = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(first.hits, 0);
  EXPECT_EQ(first.misses + first.skipped, first.iterations);

  before = registry.TakeSnapshot();
  auto rows_b = ServeCollate(b->get(), qs);
  ASSERT_TRUE(rows_b.ok()) << rows_b.status().ToString();
  EXPECT_EQ(*rows_b, oracle);
  MemoCounts second = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(second.iterations, 8);
  EXPECT_EQ(second.hits, second.iterations);

  // The stats pull reports the served memo and the same counters.
  auto stats = (*b)->StatsJson();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(MemoStat(*stats, "hits"), first.hits + second.hits);
  EXPECT_EQ(MemoStat(*stats, "misses"), first.misses + second.misses);
  EXPECT_EQ(MemoStat(*stats, "entries"),
            static_cast<int64_t>((*server)->memo()->entry_count()));
  EXPECT_GT(MemoStat(*stats, "entries"), 0);

  a->reset();
  b->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerMemoTest, OwnerUpdateKeepsTokensOfNewestSnapshots) {
  HistoryFixture f = MakeHistory(12);
  const std::string qs = QsRange(f.last_snap - 3, f.last_snap);
  const std::vector<std::string> oracle = CollateOracle(&f, qs, "Oracle");
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  auto cold = ServeCollate(client->get(), qs);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(*cold, oracle);

  // The owner commits over pages the newest snapshots share with the
  // current database. Copy-on-write archives them, but their bytes, and
  // so their tokens (the snapshot the content starts at), stay the same:
  // the rerun answers every snapshot without executing Qq.
  ASSERT_TRUE((*client)->Sql("UPDATE t SET v = v + 1000 WHERE k < 300").ok());
  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  auto rerun = ServeCollate(client->get(), qs);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(*rerun, oracle);
  MemoCounts counts = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(counts.iterations, 4);
  EXPECT_EQ(counts.misses, 0);
  EXPECT_EQ(counts.hits + counts.skipped, counts.iterations);

  // A snapshot declared after the update reads the new bytes: it, and only
  // it, executes.
  auto next = (*client)->DeclareSnapshot("after-update");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  before = registry.TakeSnapshot();
  auto extended = ServeCollate(client->get(), QsRange(f.last_snap - 3, *next));
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  counts = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(counts.iterations, 5);
  EXPECT_EQ(counts.misses, 1);
  EXPECT_EQ(counts.hits + counts.skipped, 4);

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerMemoTest, WarmSessionsHitWithoutStepping) {
  // A registration is a proof: a session replaying another session's
  // window hits every snapshot without stepping its snapshot-set cursor
  // (no Maplog page, no delta), across an owner update; a snapshot
  // declared after the update reads new bytes and alone executes.
  HistoryFixture f = MakeHistory(12);
  const std::string qs = QsRange(1, f.last_snap);
  const std::vector<std::string> oracle = CollateOracle(&f, qs, "Oracle");
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto a = Client::Connect(options.socket_path);
  auto b = Client::Connect(options.socket_path);
  auto c = Client::Connect(options.socket_path);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());

  ASSERT_TRUE(ServeCollate(a->get(), qs).ok());
  ASSERT_TRUE((*a)->Sql("UPDATE t SET v = v + 1000 WHERE k < 300").ok());
  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  auto warm = ServeCollate(b->get(), qs);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(*warm, oracle);
  retro::MetricsRegistry::Snapshot delta =
      registry.TakeSnapshot().DeltaFrom(before);
  MemoCounts counts = MemoDelta(delta);
  EXPECT_EQ(counts.iterations, 12);
  EXPECT_EQ(counts.hits, counts.iterations);
  EXPECT_EQ(delta.counter("rql.maplog_pages"), 0);
  EXPECT_EQ(delta.counter("rql.delta_pages_scanned"), 0);

  auto next = (*a)->DeclareSnapshot("after-update");
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  const std::string extended_qs = QsRange(1, *next);
  before = registry.TakeSnapshot();
  auto extended = ServeCollate(c->get(), extended_qs);
  ASSERT_TRUE(extended.ok()) << extended.status().ToString();
  counts = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(counts.iterations, 13);
  EXPECT_EQ(counts.misses, 1);
  EXPECT_EQ(counts.hits, 12);

  a->reset();
  b->reset();
  c->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
  EXPECT_EQ(*extended, CollateOracle(&f, extended_qs, "OracleExtended"));
}

TEST(ServerMemoTest, TruncateInvalidatesDroppedSnapshots) {
  HistoryFixture f = MakeHistory(12);
  constexpr retro::SnapshotId kKeep = 6;
  const std::string survivors = QsRange(kKeep, f.last_snap);
  const std::vector<std::string> oracle =
      CollateOracle(&f, survivors, "Oracle");
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());
  auto client = Client::Connect(options.socket_path);
  ASSERT_TRUE(client.ok());

  ASSERT_TRUE(ServeCollate(client->get(), QsRange(1, f.last_snap)).ok());
  auto fp = sql::QueryFingerprint(kQq, "CollateData");
  ASSERT_TRUE(fp.ok());
  retro::MemoTable* memo = (*server)->memo();
  ASSERT_NE(memo->Probe(*fp, 1), nullptr);

  auto earliest = (*client)->Truncate(kKeep);
  ASSERT_TRUE(earliest.ok()) << earliest.status().ToString();
  for (retro::SnapshotId snap = 1; snap < kKeep; ++snap) {
    EXPECT_EQ(memo->Probe(*fp, snap), nullptr) << snap;
  }
  auto rerun = ServeCollate(client->get(), survivors);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(*rerun, oracle);

  client->reset();
  WaitForNoSessions(server->get());
  (*server)->Stop();
}

TEST(ServerMemoTest, ConcurrentSessionsPublishTheSameSnapshots) {
  HistoryFixture f = MakeHistory(12);
  const std::string qs = QsRange(2, f.last_snap);
  const std::vector<std::string> oracle = CollateOracle(&f, qs, "Oracle");
  retro::MetricsRegistry registry;
  ServerOptions options;
  options.socket_path = UniqueSocketPath();
  options.metrics = &registry;
  options.scheduler.dispatch_threads = 2;
  auto server = Server::Create(f.data.get(), f.meta.get(), options);
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*server)->Start().ok());

  retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
  std::vector<Result<std::vector<std::string>>> rows(
      2, Status::Internal("not run"));
  std::vector<std::thread> threads;
  for (auto& out : rows) {
    threads.emplace_back([&out, &options, &qs] {
      auto client = Client::Connect(options.socket_path);
      out = client.ok() ? ServeCollate(client->get(), qs) : client.status();
    });
  }
  for (std::thread& t : threads) t.join();
  for (const auto& r : rows) {
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(*r, oracle);
  }
  MemoCounts counts = MemoDelta(registry.TakeSnapshot().DeltaFrom(before));
  EXPECT_EQ(counts.iterations, 2 * static_cast<int64_t>(f.last_snap - 1));
  EXPECT_EQ(counts.hits + counts.misses + counts.skipped, counts.iterations);
  // First publish wins: one entry per snapshot at most, however the two
  // runs interleaved.
  EXPECT_GT((*server)->memo()->entry_count(), 0u);
  EXPECT_LE((*server)->memo()->entry_count(), f.last_snap - 1);

  WaitForNoSessions(server->get());
  (*server)->Stop();
}

// --- a session keeps its last result table ---------------------------------

constexpr char kMaxPairs[] = "(v,max)";

/// Embedded paper-faithful AggregateDataInTable(qs, kQq, table, pairs)
/// oracle, computed on the fixture's owner engine before a server starts.
std::vector<std::string> AggTableOracle(HistoryFixture* f,
                                        const std::string& qs,
                                        const std::string& pairs,
                                        const std::string& table) {
  EXPECT_TRUE(f->engine->AggregateDataInTable(qs, kQq, table, pairs).ok())
      << table;
  auto rows = f->meta->Query("SELECT * FROM " + table);
  EXPECT_TRUE(rows.ok()) << table;
  return rows.ok() ? EncodeRows(*rows) : std::vector<std::string>{};
}

/// Runs AggregateDataInTable(qs, kQq, "Out", pairs) on `client` and
/// returns its rows.
Result<std::vector<std::string>> ServeAggTable(Client* client,
                                               const std::string& qs,
                                               const std::string& pairs) {
  RQL_ASSIGN_OR_RETURN(uint64_t run,
                       client->StartRun(Mechanism::kAggregateDataInTable, qs,
                                        kQq, "Out", pairs));
  RQL_ASSIGN_OR_RETURN(Client::RunResult done, client->WaitRun(run));
  RQL_RETURN_IF_ERROR(done.status);
  RQL_ASSIGN_OR_RETURN(sql::QueryResult rows,
                       client->MetaSql("SELECT * FROM Out"));
  return EncodeRows(rows);
}

/// A 12-snapshot history whose oracles the test computes before Start()
/// serves it, with one client.
struct ReuseFixture {
  HistoryFixture f = MakeHistory(12);
  retro::MetricsRegistry registry;
  ServerOptions options;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;

  void Start() {
    options.socket_path = UniqueSocketPath();
    options.metrics = &registry;
    auto created = Server::Create(f.data.get(), f.meta.get(), options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    server = std::move(*created);
    ASSERT_TRUE(server->Start().ok());
    auto connected = Client::Connect(options.socket_path);
    ASSERT_TRUE(connected.ok()) << connected.status().ToString();
    client = std::move(*connected);
  }

  ~ReuseFixture() {
    client.reset();
    if (server == nullptr) return;
    WaitForNoSessions(server.get());
    server->Stop();
  }

  int64_t Reuses() {
    return registry.TakeSnapshot().counter("rql.result_reuses");
  }

  /// Serves the run twice; the second keeps the first one's table.
  void FoldThenKeep(const std::string& qs, const std::string& pairs,
                    const std::vector<std::string>& oracle) {
    auto folded = ServeAggTable(client.get(), qs, pairs);
    ASSERT_TRUE(folded.ok()) << folded.status().ToString();
    EXPECT_EQ(*folded, oracle);
    const int64_t reuses = Reuses();
    auto kept = ServeAggTable(client.get(), qs, pairs);
    ASSERT_TRUE(kept.ok()) << kept.status().ToString();
    EXPECT_EQ(*kept, oracle);
    EXPECT_EQ(Reuses(), reuses + 1);
  }
};

TEST(ServerReuseTest, RunInsideClientMetaTransactionKeepsTheOldTable) {
  ReuseFixture m;
  const std::string qs = QsRange(3, 10);
  const std::vector<std::string> oracle =
      AggTableOracle(&m.f, qs, kMaxPairs, "Oracle");
  m.Start();
  ASSERT_NE(m.client, nullptr);
  auto folded = ServeAggTable(m.client.get(), qs, kMaxPairs);
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  ASSERT_EQ(*folded, oracle);

  ASSERT_TRUE(m.client->MetaSql("BEGIN").ok());
  auto run = m.client->StartRun(Mechanism::kAggregateDataInTable, qs, kQq,
                                "Out", kMaxPairs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto done = m.client->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->status.code(), StatusCode::kInvalidArgument)
      << done->status.ToString();
  ASSERT_TRUE(m.client->MetaSql("COMMIT").ok());

  auto rows = m.client->MetaSql("SELECT * FROM Out");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(EncodeRows(*rows), oracle);
}

TEST(ServerReuseTest, SameSessionRerunKeepsTheTable) {
  ReuseFixture m;
  const std::string qs = QsRange(3, 10);
  const std::vector<std::string> oracle =
      AggTableOracle(&m.f, qs, kMaxPairs, "Oracle");
  m.Start();
  ASSERT_NE(m.client, nullptr);
  m.FoldThenKeep(qs, kMaxPairs, oracle);
  auto stats = m.client->StatsJson();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(MemoStat(*stats, "result_reuses"), 1);
}

TEST(ServerReuseTest, ChangesBetweenRerunsForceARefold) {
  ReuseFixture m;
  const std::string qs = QsRange(m.f.last_snap - 3, m.f.last_snap);
  const std::vector<std::string> oracle =
      AggTableOracle(&m.f, qs, kMaxPairs, "Oracle");
  const std::vector<std::string> sum_oracle =
      AggTableOracle(&m.f, qs, "(v,sum)", "SumOracle");
  m.Start();
  ASSERT_NE(m.client, nullptr);
  // The newest snapshots share pages with the current state. The owner's
  // commit archives them without changing what any snapshot reads, so it
  // is no reason to refold: the rerun keeps its table, with no miss.
  m.FoldThenKeep(qs, kMaxPairs, oracle);
  ASSERT_TRUE(m.client->Sql("UPDATE t SET v = v + 1000 WHERE k < 300").ok());
  retro::MetricsRegistry::Snapshot before = m.registry.TakeSnapshot();
  const int64_t kept_before = m.Reuses();
  auto kept = ServeAggTable(m.client.get(), qs, kMaxPairs);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(*kept, oracle);
  EXPECT_EQ(m.Reuses(), kept_before + 1);
  EXPECT_EQ(MemoDelta(m.registry.TakeSnapshot().DeltaFrom(before)).misses, 0);

  // Changes that alter what the run reads or writes do refold.
  struct Case {
    const char* what;
    std::function<Status()> change;
    const char* pairs;
    const std::vector<std::string>* expected;
  };
  const std::vector<Case> cases = {
      {"metadata delete",
       [&] { return m.client->MetaSql("DELETE FROM Out").status(); },
       kMaxPairs, &oracle},
      {"other pairs", [] { return Status::OK(); }, "(v,sum)", &sum_oracle},
      {"truncate", [&] { return m.client->Truncate(4).status(); }, kMaxPairs,
       &oracle},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    m.FoldThenKeep(qs, kMaxPairs, oracle);
    ASSERT_TRUE(c.change().ok());
    const int64_t reuses = m.Reuses();
    auto rerun = ServeAggTable(m.client.get(), qs, c.pairs);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(*rerun, *c.expected);
    EXPECT_EQ(m.Reuses(), reuses);
  }
}

/// The scheduler's running-run count in a kStats document, or -1.
int64_t ActiveRuns(const std::string& stats_json) {
  size_t at = stats_json.find("\"active\": ");
  if (at == std::string::npos) return -1;
  return std::stoll(stats_json.substr(at + 10));
}

TEST(ServerReuseTest, CancelDuringValidationLeavesNoTable) {
  ReuseFixture m;
  const std::string qs = QsRange(3, 10);
  const std::vector<std::string> oracle =
      AggTableOracle(&m.f, qs, kMaxPairs, "Oracle");
  m.Start();
  ASSERT_NE(m.client, nullptr);
  // A Qs slow enough for the cancel to land while it runs, selecting the
  // same snapshots: the first poll after it is the validation pass's. Its
  // table is written before the runs, so the kept table stays valid.
  std::string values;
  for (int i = 0; i < 2000; ++i) {
    values += (i == 0 ? "(" : ", (") + std::to_string(i) + ")";
  }
  ASSERT_TRUE(m.client->MetaSql("CREATE TABLE Big (x INTEGER)").ok());
  ASSERT_TRUE(m.client->MetaSql("INSERT INTO Big VALUES " + values).ok());
  const std::string slow_qs =
      "SELECT snap_id FROM SnapIds WHERE snap_id >= 3 AND snap_id <= 10 "
      "AND (SELECT COUNT(*) FROM Big a, Big b WHERE a.x < b.x) > 0 "
      "ORDER BY snap_id";
  m.FoldThenKeep(qs, kMaxPairs, oracle);

  const int64_t reuses = m.Reuses();
  auto run = m.client->StartRun(Mechanism::kAggregateDataInTable, slow_qs,
                                kQq, "Out", kMaxPairs);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  for (int i = 0; i < 500; ++i) {
    auto stats = m.client->StatsJson();
    ASSERT_TRUE(stats.ok());
    if (ActiveRuns(*stats) > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(m.client->CancelRun(*run).ok());
  auto done = m.client->WaitRun(*run);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->status.code(), StatusCode::kAborted)
      << done->status.ToString();
  EXPECT_FALSE(m.client->MetaSql("SELECT * FROM Out").ok());

  auto rerun = ServeAggTable(m.client.get(), qs, kMaxPairs);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(*rerun, oracle);
  EXPECT_EQ(m.Reuses(), reuses);
}

/// A started server over a 6-snapshot history, with one client.
struct MirrorFixture {
  HistoryFixture f = MakeHistory(6);
  ServerOptions options;
  std::unique_ptr<Server> server;
  std::unique_ptr<Client> client;

  MirrorFixture() {
    options.socket_path = UniqueSocketPath();
    auto created = Server::Create(f.data.get(), f.meta.get(), options);
    EXPECT_TRUE(created.ok());
    if (!created.ok()) return;
    server = std::move(*created);
    EXPECT_TRUE(server->Start().ok());
    auto connected = Client::Connect(options.socket_path);
    EXPECT_TRUE(connected.ok());
    if (connected.ok()) client = std::move(*connected);
  }

  ~MirrorFixture() {
    client.reset();
    if (server == nullptr) return;
    WaitForNoSessions(server.get());
    server->Stop();
  }

  /// The iterations of a served run over every snapshot the session's
  /// SnapIds mirror lists.
  Result<uint32_t> RunOverSnapIds() {
    RQL_ASSIGN_OR_RETURN(
        uint64_t run,
        client->StartRun(Mechanism::kAggregateDataInVariable,
                         "SELECT snap_id FROM SnapIds",
                         "SELECT COUNT(*) AS c FROM t", "Count", "sum"));
    RQL_ASSIGN_OR_RETURN(Client::RunResult done, client->WaitRun(run));
    RQL_RETURN_IF_ERROR(done.status);
    return done.iterations;
  }
};

/// Expects `run` to have succeeded with `iterations` iterations.
void ExpectIterations(const Result<uint32_t>& run, uint32_t iterations) {
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(*run, iterations);
}

TEST(ServerMirrorTest, RunSeesSnapshotDeclaredSinceTheLastRun) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  ExpectIterations(m.RunOverSnapIds(), 6);
  ExpectIterations(m.RunOverSnapIds(), 6);
  ASSERT_TRUE(m.client->DeclareSnapshot("later").ok());
  ExpectIterations(m.RunOverSnapIds(), 7);
}

TEST(ServerMirrorTest, RunAfterTruncateSkipsDroppedSnapshots) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  ExpectIterations(m.RunOverSnapIds(), 6);
  auto earliest = m.client->Truncate(4);
  ASSERT_TRUE(earliest.ok()) << earliest.status().ToString();
  ExpectIterations(m.RunOverSnapIds(), 3);
}

TEST(ServerMirrorTest, SnapIdsDeletedOverMetaSqlReturnOnTheNextRun) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  ExpectIterations(m.RunOverSnapIds(), 6);
  ASSERT_TRUE(m.client->MetaSql("DELETE FROM SnapIds").ok());
  ExpectIterations(m.RunOverSnapIds(), 6);
}

TEST(ServerMirrorTest, RunIntoSnapIdsLeavesTheNextRunCorrect) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  ExpectIterations(m.RunOverSnapIds(), 6);
  // The run replaces the private SnapIds with 200 rows of its own.
  auto run = m.client->StartRun(Mechanism::kCollateData, QsRange(1, 2),
                                "SELECT k AS snap_id FROM t WHERE k < 100",
                                "SnapIds");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto done = m.client->WaitRun(*run);
  ASSERT_TRUE(done.ok() && done->status.ok());
  ExpectIterations(m.RunOverSnapIds(), 6);
}

/// A run over SnapIds by a second client, whose session mirrors SnapIds
/// for the first time: what any session's next run must match.
Result<uint32_t> FreshRunOverSnapIds(MirrorFixture* m) {
  RQL_ASSIGN_OR_RETURN(auto fresh, Client::Connect(m->options.socket_path));
  std::swap(fresh, m->client);
  Result<uint32_t> iterations = m->RunOverSnapIds();
  std::swap(fresh, m->client);
  return iterations;
}

TEST(ServerMirrorTest, TruncationAndOwnSnapIdsWriteMatchAFreshSession) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  ExpectIterations(m.RunOverSnapIds(), 6);
  ASSERT_TRUE(m.client->Truncate(3).ok());
  ExpectIterations(m.RunOverSnapIds(), 4);
  ExpectIterations(FreshRunOverSnapIds(&m), 4);
  // A row the client writes past the mirrored count: kept, the run would
  // iterate snapshot 99, which does not exist.
  ASSERT_TRUE(
      m.client->MetaSql("INSERT INTO SnapIds VALUES (99, '', '')").ok());
  ExpectIterations(m.RunOverSnapIds(), 4);
  ExpectIterations(FreshRunOverSnapIds(&m), 4);
  ASSERT_TRUE(m.client->DeclareSnapshot("later").ok());
  ExpectIterations(m.RunOverSnapIds(), 5);
  ExpectIterations(FreshRunOverSnapIds(&m), 5);
}

TEST(ServerMirrorTest, RerunStatsShowTheReusedQs) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  for (int i = 0; i < 3; ++i) ExpectIterations(m.RunOverSnapIds(), 6);
  auto text = m.client->RunStatsText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("qs: reused, result table: kept"), std::string::npos)
      << *text;
  ASSERT_TRUE(m.client->DeclareSnapshot("later").ok());
  ExpectIterations(m.RunOverSnapIds(), 7);
  text = m.client->RunStatsText();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("qs: evaluated, result table: folded"),
            std::string::npos)
      << *text;
}

TEST(ServerMirrorTest, ListSnapshotsIsTheOwnersSnapIds) {
  MirrorFixture m;
  ASSERT_NE(m.client, nullptr);
  auto expect_owner_table = [&m](const char* when) {
    SCOPED_TRACE(when);
    auto listed = m.client->ListSnapshots();
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    auto owner = m.f.meta->Query("SELECT * FROM SnapIds");
    ASSERT_TRUE(owner.ok()) << owner.status().ToString();
    EXPECT_EQ(listed->columns, owner->columns);
    EXPECT_EQ(EncodeRows(*listed), EncodeRows(*owner));
    // And the session's mirror, refreshed from the same image.
    auto mirrored = m.client->MetaSql("SELECT * FROM SnapIds");
    ASSERT_TRUE(mirrored.ok()) << mirrored.status().ToString();
    EXPECT_EQ(EncodeRows(*mirrored), EncodeRows(*owner));
  };
  expect_owner_table("at start");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(m.client->DeclareSnapshot("d" + std::to_string(i)).ok());
  }
  expect_owner_table("after declarations");
  ASSERT_TRUE(m.client->Truncate(5).ok());
  expect_owner_table("after a truncation");
  // The first declarations after it take slots the truncation freed
  // before the surviving rows: the table no longer extends the image, and
  // the mirror is rewritten, not appended to.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(m.client->DeclareSnapshot("e" + std::to_string(i)).ok());
    expect_owner_table("after a declaration following the truncation");
  }
  ExpectIterations(m.RunOverSnapIds(), 8);
}

/// The private SnapIds heap of `session`: (rid, record) in scan order.
std::vector<std::pair<sql::Rid, std::string>> SnapIdsHeap(Session* session) {
  std::vector<std::pair<sql::Rid, std::string>> out;
  const sql::TableInfo* info =
      session->meta()->catalog()->data().FindTable("SnapIds");
  EXPECT_NE(info, nullptr);
  if (info == nullptr) return out;
  auto it = sql::HeapTable::Scan(session->meta()->store(), info->root);
  for (; it.Valid(); it.Next()) {
    out.emplace_back(it.rid(), std::string(it.record()));
  }
  EXPECT_TRUE(it.status().ok());
  return out;
}

/// The same heap with each rid's page named by its rank in scan order, so
/// two sessions' heaps compare record by record.
std::vector<std::string> RankedHeap(Session* session) {
  std::vector<std::string> out;
  std::map<storage::PageId, size_t> rank;
  for (const auto& [rid, record] : SnapIdsHeap(session)) {
    auto page = rank.try_emplace(sql::RidPage(rid), rank.size());
    out.push_back(std::to_string(page.first->second) + "." +
                  std::to_string(sql::RidSlot(rid)) + ":" + record);
  }
  return out;
}

struct SessionMirrorFixture {
  HistoryFixture f = MakeHistory(6);
  std::unique_ptr<Session> session = NewSession();
  /// The owner's SnapIds as the server publishes it: republished by
  /// Declare and Truncate.
  std::shared_ptr<const SnapIdsImage> image = Republished(nullptr);

  std::unique_ptr<Session> NewSession() {
    auto created = Session::Create(1, f.data->store(), RqlOptions{});
    EXPECT_TRUE(created.ok()) << created.status().ToString();
    return created.ok() ? std::move(*created) : nullptr;
  }

  std::shared_ptr<const SnapIdsImage> Republished(const SnapIdsImage* last) {
    auto loaded = SnapIdsImage::Load(f.meta.get(), last);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    return loaded.ok() ? *loaded : std::make_shared<SnapIdsImage>();
  }

  void Declare() {
    ASSERT_TRUE(f.engine->CommitWithSnapshot("later").ok());
    image = Republished(image.get());
  }

  void Truncate(retro::SnapshotId keep_from) {
    ASSERT_TRUE(f.engine->TruncateHistory(keep_from).ok());
    image = Republished(image.get());
  }

  /// Mirrors the image into the session, then expects the mirror, and the
  /// image, to hold exactly the owner's rows, laid out as a fresh
  /// session's full rewrite lays them out.
  void MirrorAndCheck() {
    ASSERT_TRUE(session->ReplaceSnapIds(*image).ok());
    auto owner = f.meta->Query("SELECT * FROM SnapIds");
    ASSERT_TRUE(owner.ok()) << owner.status().ToString();
    EXPECT_EQ(EncodeRows(image->table), EncodeRows(*owner));
    auto mirrored = session->meta()->Query("SELECT * FROM SnapIds");
    ASSERT_TRUE(mirrored.ok()) << mirrored.status().ToString();
    EXPECT_EQ(EncodeRows(*mirrored), EncodeRows(*owner));
    std::unique_ptr<Session> fresh = NewSession();
    ASSERT_NE(fresh, nullptr);
    ASSERT_TRUE(fresh->ReplaceSnapIds(*image).ok());
    EXPECT_EQ(RankedHeap(session.get()), RankedHeap(fresh.get()));
  }

  /// Metadata mutations of the session's next refresh.
  uint64_t RefreshMutations() {
    const storage::PageStore* pages = session->meta()->store()->page_store();
    const uint64_t start = pages->mutations();
    EXPECT_TRUE(session->ReplaceSnapIds(*image).ok());
    return pages->mutations() - start;
  }
};

TEST(ServerMirrorTest, DeclaredSnapshotAppendsToTheMirror) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  m.MirrorAndCheck();
  const auto before = SnapIdsHeap(m.session.get());
  ASSERT_EQ(before.size(), 6u);

  m.Declare();
  ASSERT_EQ(m.image->table.rows.size(), 7u);
  m.MirrorAndCheck();
  // The rows mirrored before stay where they were: only the new row was
  // written.
  const auto after = SnapIdsHeap(m.session.get());
  ASSERT_EQ(after.size(), 7u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "row " << i;
  }
}

TEST(ServerMirrorTest, TruncatedSnapIdsRewriteTheMirror) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  m.MirrorAndCheck();
  m.Truncate(4);
  ASSERT_EQ(m.image->table.rows.size(), 3u);
  m.MirrorAndCheck();

  // Truncated again, then declared past the mirror's length: only the
  // epoch, not the row count, shows that the rows are not an extension.
  m.Truncate(6);
  for (int i = 0; i < 3; ++i) m.Declare();
  ASSERT_EQ(m.image->table.rows.size(), 4u);
  m.MirrorAndCheck();
}

TEST(ServerMirrorTest, RefreshWithoutADeclarationWritesNothing) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  m.MirrorAndCheck();
  EXPECT_EQ(m.RefreshMutations(), 0u);
  // Republished with nothing declared: the same generation.
  m.image = m.Republished(m.image.get());
  EXPECT_EQ(m.RefreshMutations(), 0u);
  m.Declare();
  EXPECT_GT(m.RefreshMutations(), 0u);
  EXPECT_EQ(m.RefreshMutations(), 0u);
}

TEST(ServerMirrorTest, OneDeclarationCostsTheSameAtAnyHistoryLength) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  m.MirrorAndCheck();
  m.Declare();
  const uint64_t at_6 = m.RefreshMutations();
  while (m.image->table.rows.size() < 300) m.Declare();
  m.MirrorAndCheck();
  m.Declare();
  EXPECT_EQ(m.RefreshMutations(), at_6);
  m.MirrorAndCheck();
}

/// The single integer a one-row, one-column result holds, or -1.
int64_t ScalarOf(const Result<sql::QueryResult>& r) {
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok() || r->rows.size() != 1 || r->rows[0].size() != 1) return -1;
  return r->rows[0][0].AsInt();
}

TEST(ServerMirrorTest, ReadOnlyMetaSqlKeepsTheMirrorForAnAppend) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  const storage::PageStore* pages = m.session->meta()->store()->page_store();
  const std::string count = "SELECT COUNT(*) FROM SnapIds";
  EXPECT_EQ(ScalarOf(m.session->MetaSql(*m.image, count)), 6);
  const auto before = SnapIdsHeap(m.session.get());

  // The read wrote nothing, so the refresh after one declaration appends.
  m.Declare();
  uint64_t start = pages->mutations();
  EXPECT_EQ(ScalarOf(m.session->MetaSql(*m.image, count)), 7);
  const uint64_t append_mutations = pages->mutations() - start;
  const auto after = SnapIdsHeap(m.session.get());
  ASSERT_EQ(after.size(), 7u);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i], before[i]) << "row " << i;
  }

  // A statement that writes forgets the mirror: the next refresh rewrites
  // the row it deleted, and costs more than the append did.
  ASSERT_TRUE(
      m.session->MetaSql(*m.image, "DELETE FROM SnapIds WHERE snap_id = 1")
          .ok());
  start = pages->mutations();
  EXPECT_EQ(ScalarOf(m.session->MetaSql(*m.image, count)), 7);
  EXPECT_LT(append_mutations, pages->mutations() - start);
  std::unique_ptr<Session> fresh = m.NewSession();
  ASSERT_NE(fresh, nullptr);
  ASSERT_TRUE(fresh->ReplaceSnapIds(*m.image).ok());
  EXPECT_EQ(RankedHeap(m.session.get()), RankedHeap(fresh.get()));
}

TEST(ServerMirrorTest, ClientSnapIdsWriteForcesAFullRefresh) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  m.MirrorAndCheck();
  // The client's row sits past the mirrored count: only forgetting the
  // generation keeps it from surviving the next refresh.
  ASSERT_TRUE(
      m.session->MetaSql(*m.image, "INSERT INTO SnapIds VALUES (99, '', '')")
          .ok());
  m.Declare();
  m.MirrorAndCheck();
}

TEST(ServerMirrorTest, MirrorWrittenInsideAClientTransactionIsNotTrusted) {
  SessionMirrorFixture m;
  ASSERT_NE(m.session, nullptr);
  const std::string count = "SELECT COUNT(*) FROM SnapIds";
  ASSERT_TRUE(m.session->MetaSql(*m.image, "BEGIN").ok());
  // The append joins the client's transaction, which then rolls back.
  m.Declare();
  EXPECT_EQ(ScalarOf(m.session->MetaSql(*m.image, count)), 7);
  ASSERT_TRUE(m.session->MetaSql(*m.image, "ROLLBACK").ok());
  EXPECT_EQ(ScalarOf(m.session->MetaSql(*m.image, count)), 7);
}

}  // namespace
}  // namespace rql::server
