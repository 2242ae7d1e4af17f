// rqlbench: end-to-end benchmark of the RQL daemon as its clients see it.
//
// One process builds a fresh TPC-H snapshot history in memory (SF 0.01,
// UW30, 200 snapshots), boots an in-process server::Server with default
// options, and drives it over its Unix socket from seeded closed-loop
// client scripts (plus one paced writer in ingest_mixed). Every latency is
// taken on the client with a steady clock, from request send to reply or
// kRunDone; nothing reads the engine's own RqlRunStats totals, which add
// the CostModel's simulated I/O into their "time".
//
// Outputs are verified inside the timed command: each runner's final
// result table must be byte-equal to a sequential flags-off embedded
// oracle, and every AS OF read must equal the count computed before the
// server started (non-interference under concurrent writes). Any mismatch
// counts as a failed operation and makes the exit code non-zero.
//
// With --trace-dir the same script also records client-side spans, probes
// the wire, samples the scheduler, and after Server::Stop replays the
// first requests of each client directly against the engine's layers
// (mechanism run, OpenSnapshot, Qq parse/execute) to split the daemon
// latency by layer. Per-layer numbers come only from traced runs;
// end-to-end numbers only from untraced ones.
//
// Usage:
//   rqlbench --workload sweep_old --seed 1 --seconds 20
//            [--setups 3] [--trace-dir DIR --untraced-rps X]
// The last stdout line is "rqlbench-result {json}".

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "report.h"
#include "retro/metrics.h"
#include "server/client.h"
#include "server/server.h"
#include "server/session.h"
#include "sql/parser.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"
#include "tpch/workload.h"

namespace rqlbench {
namespace {

using rql::NowMicros;
using rql::Random;
using rql::Result;
using rql::RqlEngine;
using rql::RqlOptions;
using rql::Status;
using rql::retro::SnapshotId;
namespace retro = rql::retro;
namespace server = rql::server;
namespace sql = rql::sql;
namespace storage = rql::storage;
namespace tpch = rql::tpch;

constexpr double kScaleFactor = 0.01;
constexpr int kHistorySnapshots = 200;
constexpr int kWarmupRequests = 2;
/// Traced runs probe the wire after every this many requests per client.
constexpr int kProbeEvery = 10;
/// Requests per client the traced run's direct pass replays.
constexpr size_t kReplayPerClient = 20;
/// Request ids are client * kIdStride + sequence number.
constexpr uint64_t kIdStride = 1000000;
constexpr int64_t kSampleIntervalUs = 10000;
/// ingest_mixed's writer: one UPDATE + snapshot declaration per period.
constexpr int64_t kWritePeriodUs = 40000;  // 25 snapshots/s
constexpr int64_t kKeysPerWrite = 60;
constexpr char kResultTable[] = "BenchOut";

// The paper's Table 1 queries.
constexpr char kQqIo[] =
    "SELECT COUNT(*) FROM orders WHERE o_orderstatus = 'O'";
constexpr char kQqAgg[] =
    "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av "
    "FROM orders GROUP BY o_custkey";
constexpr char kReadSql[] =
    "SELECT AS OF ? COUNT(*) FROM orders WHERE o_orderstatus = 'O'";

/// One scheduled RQL run over the consecutive snapshots [first, last].
struct RunSpec {
  server::Mechanism mechanism = server::Mechanism::kAggregateDataInVariable;
  SnapshotId first = 1;
  SnapshotId last = 1;
  const char* qq = "";
  const char* extra = "";

  std::string Qs() const {
    return "SELECT snap_id FROM SnapIds WHERE snap_id >= " +
           std::to_string(first) + " AND snap_id <= " + std::to_string(last) +
           " ORDER BY snap_id";
  }
  std::vector<SnapshotId> Snapshots() const {
    std::vector<SnapshotId> out;
    for (SnapshotId s = first; s <= last; ++s) out.push_back(s);
    return out;
  }
};

enum class Role { kRunner, kWriter, kReader };

struct Shared;

struct Workload {
  const char* name;
  std::vector<Role> roles;  // one per client connection
  /// Snapshot page cache capacity; 0 keeps the store's unbounded default.
  uint64_t snapshot_cache_pages;
  /// Client c's k-th run (runners only).
  RunSpec (*next)(int c, int k, Random* rng, const Shared& shared);
};

/// Opens the start gate once every client has warmed up.
class StartGate {
 public:
  void Ready() {
    std::lock_guard<std::mutex> lock(mu_);
    ++ready_;
    cv_.notify_all();
  }
  void WaitReady(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return ready_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int ready_ = 0;
  bool open_ = false;
};

/// What every client thread reads. Written by the main thread before the
/// gate opens, except `latest`, which only the writer advances.
struct Shared {
  const Workload* workload = nullptr;
  std::string socket;
  uint64_t seed = 1;
  bool traced = false;
  int64_t t0_us = 0;
  int64_t deadline_us = 0;
  std::atomic<SnapshotId> latest{kHistorySnapshots};
  /// COUNT(*) of kQqIo per snapshot id, computed before the server starts.
  std::vector<int64_t> read_oracle;
  /// Live o_orderkey range at set-up (the writer's key space).
  int64_t key_lo = 0;
  int64_t key_hi = 0;
  StartGate gate;
};

RunSpec SweepOld(int, int, Random* rng, const Shared&) {
  // Old history, long sweeps: snapshots 1-150 predate the last overwrite
  // cycle, so every page is archived and, once warm, shared.
  SnapshotId first = static_cast<SnapshotId>(rng->UniformRange(1, 130));
  return {server::Mechanism::kAggregateDataInVariable, first, first + 19,
          kQqIo, "AVG"};
}

RunSpec GroupbyRecent(int, int, Random*, const Shared&) {
  return {server::Mechanism::kAggregateDataInTable, 191, 200, kQqAgg,
          "(cn,sum):(av,max)"};
}

RunSpec Rollup(int, int, Random*, const Shared& shared) {
  SnapshotId last = shared.latest.load();
  return {server::Mechanism::kAggregateDataInVariable, last - 4, last, kQqIo,
          "AVG"};
}

const Workload kWorkloads[] = {
    {"sweep_old", {Role::kRunner, Role::kRunner}, 256, SweepOld},
    {"groupby_recent", {Role::kRunner, Role::kRunner}, 0, GroupbyRecent},
    {"ingest_mixed",
     {Role::kWriter, Role::kReader, Role::kReader, Role::kRunner},
     0,
     Rollup},
};

/// A measured request the traced run's direct pass replays.
struct Replay {
  bool read = false;
  RunSpec run;           // runs
  SnapshotId snap = 0;   // reads
  double daemon_us = 0;  // latency the client saw
};

struct ClientLog {
  // Latencies of requests completed inside the measured window.
  std::vector<double> primary_ms, read_ms, write_ms, lateness_ms;
  // Wire-phase samples (all measured requests).
  std::vector<double> submit_us, rtt_us, mirror_us, update_us, declare_us;
  std::vector<Span> spans;
  std::vector<Replay> replays;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;
  std::optional<RunSpec> last_run;
  std::vector<std::string> final_rows;
};

uint64_t ClientSeed(uint64_t seed, int c) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(c) + 1;
}

Status RunMechanism(RqlEngine* engine, const RunSpec& spec) {
  switch (spec.mechanism) {
    case server::Mechanism::kCollateData:
      return engine->CollateData(spec.Qs(), spec.qq, kResultTable);
    case server::Mechanism::kAggregateDataInVariable:
      return engine->AggregateDataInVariable(spec.Qs(), spec.qq,
                                             kResultTable, spec.extra);
    case server::Mechanism::kAggregateDataInTable:
      return engine->AggregateDataInTable(spec.Qs(), spec.qq, kResultTable,
                                          std::string(spec.extra));
    case server::Mechanism::kCollateDataIntoIntervals:
      return engine->CollateDataIntoIntervals(spec.Qs(), spec.qq,
                                              kResultTable);
  }
  return Status::InvalidArgument("unknown mechanism");
}

std::vector<std::string> EncodeRows(const sql::QueryResult& result) {
  std::vector<std::string> out;
  for (const sql::Row& row : result.rows) out.push_back(sql::EncodeRow(row));
  return out;
}

/// A session-shaped embedded engine (attached handle, private metadata
/// database) whose SnapIds mirror the owner's canonical table.
Result<std::unique_ptr<server::Session>> EmbeddedSession(
    tpch::History* history, const RqlOptions& options) {
  RQL_ASSIGN_OR_RETURN(
      auto session,
      server::Session::Create(0, history->data()->store(), options));
  RQL_ASSIGN_OR_RETURN(sql::QueryResult canonical,
                       history->meta()->Query("SELECT * FROM SnapIds"));
  RQL_RETURN_IF_ERROR(session->ReplaceSnapIds(canonical));
  return session;
}

/// The sequential flags-off oracle for one run's result table.
Result<std::vector<std::string>> OracleRows(tpch::History* history,
                                            const RunSpec& spec) {
  RQL_ASSIGN_OR_RETURN(auto session, EmbeddedSession(history, RqlOptions()));
  RQL_RETURN_IF_ERROR(RunMechanism(session->engine(), spec));
  RQL_ASSIGN_OR_RETURN(
      sql::QueryResult rows,
      session->meta()->Query(std::string("SELECT * FROM ") + kResultTable));
  return EncodeRows(rows);
}

// --- client threads --------------------------------------------------------

class ClientScript {
 public:
  ClientScript(int c, Shared* shared, server::Client* client, ClientLog* log)
      : c_(c), sh_(shared), cl_(client), log_(log),
        rng_(ClientSeed(shared->seed, c)) {}

  /// Warms up, signals readiness through `ready`, waits for the gate and
  /// drives the role's loop until the deadline.
  template <typename ReadyFn>
  Status Play(Role role, ReadyFn ready) {
    switch (role) {
      case Role::kRunner:
        return PlayRunner(ready);
      case Role::kReader:
        return PlayReader(ready);
      case Role::kWriter:
        return PlayWriter(ready);
    }
    return Status::InvalidArgument("unknown role");
  }

 private:
  uint64_t RequestId(int k) const { return c_ * kIdStride + k; }

  void AddSpan(const char* name, int64_t start, int64_t end, uint64_t id,
               const char* parent = "") {
    if (sh_->traced) {
      log_->spans.push_back({name, c_, start, end - start, id, parent});
    }
  }

  /// Times one round trip on the session (kRunStats: no engine work) and
  /// every few requests a SnapIds mirror refresh (kMetaSql).
  Status Probe(int k) {
    if (!sh_->traced || k % kProbeEvery != 0) return Status::OK();
    log_->attempted += 2;
    int64_t t0 = NowMicros();
    RQL_RETURN_IF_ERROR(cl_->RunStatsText().status());
    int64_t t1 = NowMicros();
    RQL_RETURN_IF_ERROR(
        cl_->MetaSql("SELECT COUNT(*) FROM SnapIds").status());
    int64_t t2 = NowMicros();
    log_->rtt_us.push_back(static_cast<double>(t1 - t0));
    log_->mirror_us.push_back(static_cast<double>(t2 - t1));
    AddSpan("wire.rtt", t0, t1, RequestId(k));
    AddSpan("wire.mirror", t1, t2, RequestId(k));
    return Status::OK();
  }

  Status Run(const RunSpec& spec, int64_t* queued_at) {
    RQL_ASSIGN_OR_RETURN(uint64_t run_id,
                         cl_->StartRun(spec.mechanism, spec.Qs(), spec.qq,
                                       kResultTable, spec.extra));
    *queued_at = NowMicros();
    RQL_ASSIGN_OR_RETURN(server::Client::RunResult done, cl_->WaitRun(run_id));
    return done.status;
  }

  template <typename ReadyFn>
  Status PlayRunner(ReadyFn ready) {
    const Workload& w = *sh_->workload;
    int64_t queued_at = 0;
    int k = 0;
    for (; k < kWarmupRequests; ++k) {
      RQL_RETURN_IF_ERROR(Run(w.next(c_, k, &rng_, *sh_), &queued_at));
    }
    ready();
    sh_->gate.WaitOpen();
    for (; NowMicros() < sh_->deadline_us; ++k) {
      RunSpec spec = w.next(c_, k, &rng_, *sh_);
      ++log_->attempted;
      int64_t start = NowMicros();
      RQL_RETURN_IF_ERROR(Run(spec, &queued_at));
      int64_t end = NowMicros();
      log_->last_run = spec;
      if (end <= sh_->deadline_us) {
        log_->primary_ms.push_back((end - start) / 1000.0);
      }
      log_->submit_us.push_back(static_cast<double>(queued_at - start));
      if (log_->replays.size() < kReplayPerClient) {
        log_->replays.push_back(
            {false, spec, 0, static_cast<double>(end - start)});
      }
      AddSpan("rql.request", start, end, RequestId(k));
      AddSpan("wire.submit", start, queued_at, RequestId(k), "rql.request");
      AddSpan("run.wait", queued_at, end, RequestId(k), "rql.request");
      RQL_RETURN_IF_ERROR(Probe(k));
    }
    if (log_->last_run.has_value()) {
      RQL_ASSIGN_OR_RETURN(
          sql::QueryResult rows,
          cl_->MetaSql(std::string("SELECT * FROM ") + kResultTable));
      log_->final_rows = EncodeRows(rows);
    }
    return Status::OK();
  }

  Status Read(uint32_t stmt, SnapshotId snap, int64_t* bound_at) {
    RQL_RETURN_IF_ERROR(cl_->BindAsOf(stmt, snap));
    *bound_at = NowMicros();
    RQL_ASSIGN_OR_RETURN(sql::QueryResult r, cl_->ExecPrepared(stmt));
    int64_t want = sh_->read_oracle[snap];
    if (r.rows.size() != 1 || r.rows[0].size() != 1 ||
        r.rows[0][0].AsInt() != want) {
      return Status::Corruption("AS OF " + std::to_string(snap) +
                                " read differs from the pre-start count " +
                                std::to_string(want));
    }
    return Status::OK();
  }

  template <typename ReadyFn>
  Status PlayReader(ReadyFn ready) {
    RQL_ASSIGN_OR_RETURN(uint32_t stmt, cl_->Prepare(kReadSql));
    auto pick = [&] {
      return static_cast<SnapshotId>(rng_.UniformRange(1, kHistorySnapshots));
    };
    int64_t bound_at = 0;
    int k = 0;
    for (; k < kWarmupRequests; ++k) {
      RQL_RETURN_IF_ERROR(Read(stmt, pick(), &bound_at));
    }
    ready();
    sh_->gate.WaitOpen();
    for (; NowMicros() < sh_->deadline_us; ++k) {
      SnapshotId snap = pick();
      ++log_->attempted;
      int64_t start = NowMicros();
      RQL_RETURN_IF_ERROR(Read(stmt, snap, &bound_at));
      int64_t end = NowMicros();
      if (end <= sh_->deadline_us) {
        log_->read_ms.push_back((end - start) / 1000.0);
      }
      if (log_->replays.size() < kReplayPerClient) {
        log_->replays.push_back(
            {true, {}, snap, static_cast<double>(end - start)});
      }
      AddSpan("read.request", start, end, RequestId(k));
      AddSpan("wire.bind", start, bound_at, RequestId(k), "read.request");
      AddSpan("wire.exec", bound_at, end, RequestId(k), "read.request");
      RQL_RETURN_IF_ERROR(Probe(k));
    }
    return Status::OK();
  }

  Status Write(int64_t* updated_at) {
    int64_t key = rng_.UniformRange(sh_->key_lo, sh_->key_hi - kKeysPerWrite);
    RQL_RETURN_IF_ERROR(
        cl_->Sql("UPDATE orders SET o_totalprice = o_totalprice + 1 "
                 "WHERE o_orderkey >= " + std::to_string(key) +
                 " AND o_orderkey < " + std::to_string(key + kKeysPerWrite))
            .status());
    *updated_at = NowMicros();
    RQL_ASSIGN_OR_RETURN(SnapshotId snap, cl_->DeclareSnapshot("bench"));
    SnapshotId want = sh_->latest.load() + 1;
    if (snap != want) {
      return Status::Corruption("declared snapshot " + std::to_string(snap) +
                                ", expected " + std::to_string(want));
    }
    sh_->latest.store(snap);
    return Status::OK();
  }

  /// Open loop: write i is due at t0 + i * period whatever the server's
  /// speed, and is timed from its due time, so a stall shows in the
  /// latency of every write queued behind it.
  template <typename ReadyFn>
  Status PlayWriter(ReadyFn ready) {
    int64_t updated_at = 0;
    for (int k = 0; k < kWarmupRequests; ++k) {
      RQL_RETURN_IF_ERROR(Write(&updated_at));
    }
    ready();
    sh_->gate.WaitOpen();
    for (int k = kWarmupRequests;; ++k) {
      int64_t due = sh_->t0_us + (k - kWarmupRequests) * kWritePeriodUs;
      if (due >= sh_->deadline_us) break;
      int64_t now = NowMicros();
      if (now < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      }
      ++log_->attempted;
      int64_t start = NowMicros();
      RQL_RETURN_IF_ERROR(Write(&updated_at));
      int64_t end = NowMicros();
      log_->lateness_ms.push_back((start - due) / 1000.0);
      if (end <= sh_->deadline_us) {
        log_->write_ms.push_back((end - due) / 1000.0);
      }
      log_->update_us.push_back(static_cast<double>(updated_at - start));
      log_->declare_us.push_back(static_cast<double>(end - updated_at));
      AddSpan("write.request", due, end, RequestId(k));
      AddSpan("writer.late", due, start, RequestId(k), "write.request");
      AddSpan("wire.update", start, updated_at, RequestId(k), "write.request");
      AddSpan("wire.declare", updated_at, end, RequestId(k), "write.request");
    }
    return Status::OK();
  }

  const int c_;
  Shared* const sh_;
  server::Client* const cl_;
  ClientLog* const log_;
  Random rng_;
};

void RunClient(int c, Shared* shared, ClientLog* log) {
  bool ready = false;
  auto ready_once = [&] {
    if (!ready) shared->gate.Ready();
    ready = true;
  };
  Status st;
  auto conn = server::Client::Connect(shared->socket);
  if (conn.ok()) {
    ClientScript script(c, shared, conn->get(), log);
    st = script.Play(shared->workload->roles[c], ready_once);
  } else {
    st = conn.status();
  }
  ready_once();
  if (!st.ok()) {
    ++log->failed;
    log->error = st.ToString();
  }
}

// --- set-up ----------------------------------------------------------------

/// One benchmark fixture. Members are declared in dependency order, so
/// destruction stops the server before the history and its Env go away.
struct Fixture {
  std::unique_ptr<storage::InMemoryEnv> env;
  std::unique_ptr<tpch::History> history;
  std::unique_ptr<server::Server> server;
};

Result<std::unique_ptr<tpch::History>> BuildBenchHistory(
    storage::InMemoryEnv* env) {
  tpch::HistoryConfig config;
  config.tpch.scale_factor = kScaleFactor;
  config.workload = tpch::WorkloadSpec::UW30();
  config.snapshots = kHistorySnapshots;
  RQL_ASSIGN_OR_RETURN(auto history,
                       tpch::BuildHistory(env, "bench", config));
  RQL_RETURN_IF_ERROR(history->data()->store()->maplog()->PrewarmSkippy());
  return history;
}

Status StartServer(Fixture* f, const std::string& socket,
                   retro::MetricsRegistry* metrics) {
  server::ServerOptions options;
  options.socket_path = socket;
  options.metrics = metrics;
  RQL_ASSIGN_OR_RETURN(f->server,
                       server::Server::Create(f->history->data(),
                                              f->history->meta(), options));
  return f->server->Start();
}

/// Per-snapshot COUNTs the ingest_mixed readers are checked against, and
/// the writer's key range. Untimed: not part of set-up.
Status PrepareIngest(tpch::History* history, Shared* shared) {
  sql::Database* data = history->data();
  shared->read_oracle.assign(kHistorySnapshots + 1, 0);
  for (SnapshotId s = 1; s <= kHistorySnapshots; ++s) {
    RQL_ASSIGN_OR_RETURN(sql::Value v,
                         data->QueryScalar(RqlEngine::InjectAsOf(kQqIo, s)));
    shared->read_oracle[s] = v.AsInt();
  }
  RQL_ASSIGN_OR_RETURN(
      sql::QueryResult range,
      data->Query("SELECT MIN(o_orderkey), MAX(o_orderkey) FROM orders"));
  if (range.rows.size() != 1 || range.rows[0].size() != 2) {
    return Status::Internal("orders key range query returned no row");
  }
  shared->key_lo = range.rows[0][0].AsInt();
  shared->key_hi = range.rows[0][1].AsInt();
  if (shared->key_hi - shared->key_lo <= kKeysPerWrite) {
    return Status::Internal("orders key range too small for the writer");
  }
  return Status::OK();
}

// --- traced direct pass ----------------------------------------------------

struct DirectPass {
  std::vector<double> run_us, self_us, overhead_us;
  std::vector<double> open_us, parse_us, asof_us, current_us, prepared_us;
  int64_t runs = 0;
  /// Runs whose per-snapshot Qq times sum to at most 1.1x the run.
  int64_t asof_within_run = 0;
};

/// Times each layer entry point for Qq over `snaps`; returns the sum of
/// the AS OF executions (the window's Qq share of a run).
Result<double> TimeLayers(server::Server* srv, server::Session* session,
                          const char* qq,
                          const std::vector<SnapshotId>& snaps,
                          DirectPass* out) {
  sql::Database* data = session->data();
  retro::SnapshotStore* store = data->store();
  int64_t t = NowMicros();
  RQL_RETURN_IF_ERROR(data->Query(qq).status());
  out->current_us.push_back(static_cast<double>(NowMicros() - t));
  RQL_ASSIGN_OR_RETURN(auto prepared, data->Prepare(qq));
  // Scans share the server's decoded-page cache, as session runs do.
  data->set_scan_cache(srv->scan_cache());
  double asof_sum = 0;
  Status st;
  for (SnapshotId s : snaps) {
    t = NowMicros();
    auto view = store->OpenSnapshot(s);
    out->open_us.push_back(static_cast<double>(NowMicros() - t));
    if (!view.ok()) {
      st = view.status();
      break;
    }
    std::string text = RqlEngine::InjectAsOf(qq, s);
    t = NowMicros();
    auto parsed = sql::ParseSql(text);
    out->parse_us.push_back(static_cast<double>(NowMicros() - t));
    t = NowMicros();
    auto rows = data->Query(text);
    double asof = static_cast<double>(NowMicros() - t);
    out->asof_us.push_back(asof);
    asof_sum += asof;
    t = NowMicros();
    Status bind = prepared->BindAsOf(s);
    if (bind.ok()) bind = prepared->Execute();
    out->prepared_us.push_back(static_cast<double>(NowMicros() - t));
    st = !parsed.ok() ? parsed.status() : !rows.ok() ? rows.status() : bind;
    if (!st.ok()) break;
  }
  data->set_scan_cache(nullptr);
  RQL_RETURN_IF_ERROR(st);
  return asof_sum;
}

/// Runs after Server::Stop, while the server's scan cache is alive: one
/// thread replays each client's first requests on a session-shaped engine.
Status RunDirectPass(tpch::History* history, server::Server* srv,
                     const std::vector<ClientLog>& logs, DirectPass* out) {
  RqlOptions options;
  options.shared_scan_cache = srv->scan_cache();
  retro::MetricsRegistry replay_metrics;  // keeps replays out of the window
  options.metrics = &replay_metrics;
  RQL_ASSIGN_OR_RETURN(auto session, EmbeddedSession(history, options));
  for (const ClientLog& log : logs) {
    for (const Replay& rp : log.replays) {
      if (rp.read) {
        RQL_RETURN_IF_ERROR(
            TimeLayers(srv, session.get(), kQqIo, {rp.snap}, out).status());
        continue;
      }
      int64_t t = NowMicros();
      RQL_RETURN_IF_ERROR(RunMechanism(session->engine(), rp.run));
      double run_us = static_cast<double>(NowMicros() - t);
      RQL_ASSIGN_OR_RETURN(double asof_sum,
                           TimeLayers(srv, session.get(), rp.run.qq,
                                      rp.run.Snapshots(), out));
      out->run_us.push_back(run_us);
      out->self_us.push_back(run_us - asof_sum);
      out->overhead_us.push_back(rp.daemon_us - run_us);
      ++out->runs;
      if (asof_sum <= 1.1 * run_us) ++out->asof_within_run;
    }
  }
  return Status::OK();
}

// --- main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  int setups = 3;
  std::string trace_dir;
  double untraced_rps = 0;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--setups") {
      args->setups = std::atoi(value.c_str());
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else if (key == "--untraced-rps") {
      args->untraced_rps = std::atof(value.c_str());
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && args->setups >= 1;
}

/// Builds the fixture `setups` times and times each build (history,
/// Skippy prewarm, server start); only the last one stays up. The median
/// is reported, so work moved into set-up shows without one slow build
/// deciding the number.
Status SetUp(const Args& args, Shared* shared, retro::MetricsRegistry* registry,
             Fixture* fixture, std::vector<double>* setup_s) {
  const std::vector<Role>& roles = shared->workload->roles;
  const bool ingest =
      std::find(roles.begin(), roles.end(), Role::kWriter) != roles.end();
  for (int i = 0; i < args.setups; ++i) {
    fixture->server.reset();
    fixture->history.reset();
    fixture->env = std::make_unique<storage::InMemoryEnv>();
    int64_t t = NowMicros();
    RQL_ASSIGN_OR_RETURN(fixture->history,
                         BuildBenchHistory(fixture->env.get()));
    int64_t build_us = NowMicros() - t;
    if (ingest && i + 1 == args.setups) {
      RQL_RETURN_IF_ERROR(PrepareIngest(fixture->history.get(), shared));
    }
    t = NowMicros();
    RQL_RETURN_IF_ERROR(StartServer(fixture, shared->socket, registry));
    setup_s->push_back((build_us + NowMicros() - t) / 1e6);
  }
  return Status::OK();
}

/// Layer counters read at both ends of the measured window.
struct WindowCounters {
  retro::MetricsRegistry::Snapshot registry;
  storage::BufferPoolStats snapshot_cache;
  sql::SharedScanCache::Stats scan_cache;
  int64_t shared_spt_builds = 0;
  int64_t admission_rejects = 0;
};

WindowCounters ReadCounters(retro::MetricsRegistry* registry,
                            server::Server* srv) {
  retro::SnapshotStore* store = srv->data()->store();
  return {registry->TakeSnapshot(), store->snapshot_cache()->stats(),
          srv->scan_cache()->GetStats(), store->shared_spt_builds_total(),
          srv->scheduler()->admission_rejects()};
}

std::vector<double> Concat(const std::vector<ClientLog>& logs,
                           std::vector<double> ClientLog::*field) {
  std::vector<double> out;
  for (const ClientLog& log : logs) {
    out.insert(out.end(), (log.*field).begin(), (log.*field).end());
  }
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int64_t Count(const std::vector<double>& v) {
  return static_cast<int64_t>(v.size());
}

/// Checks the final result table of every runner that finished cleanly
/// (a failed client is already counted) against the oracle; returns the
/// number of mismatches.
Result<int64_t> VerifyResultTables(tpch::History* history,
                                   const std::vector<ClientLog>& logs) {
  int64_t mismatches = 0;
  for (size_t c = 0; c < logs.size(); ++c) {
    if (!logs[c].last_run.has_value() || !logs[c].error.empty()) continue;
    RQL_ASSIGN_OR_RETURN(std::vector<std::string> oracle,
                         OracleRows(history, *logs[c].last_run));
    if (oracle != logs[c].final_rows) {
      ++mismatches;
      std::fprintf(stderr,
                   "rqlbench: client %zu result table (%zu rows) differs "
                   "from the oracle (%zu rows)\n",
                   c, logs[c].final_rows.size(), oracle.size());
    }
  }
  return mismatches;
}

void AddEndToEndMetrics(const std::vector<double>& setup_s,
                        const std::vector<ClientLog>& logs, double seconds,
                        MetricSet* m) {
  std::vector<double> primary = Concat(logs, &ClientLog::primary_ms);
  const int64_t n = Count(primary);
  m->Add("setup_s", Percentile(setup_s, 0.5), "s", Count(setup_s));
  m->Add("throughput_rps", n / seconds, "1/s", n);
  m->Add("latency_p50_ms", Percentile(primary, 0.5), "ms", n);
  m->Add("latency_p90_ms", Percentile(primary, 0.9), "ms", n);
  m->Add("latency_p95_ms", Percentile(primary, 0.95), "ms", n);
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  m->Add("peak_rss_mb", ru.ru_maxrss / 1024.0, "MiB");
  // ingest_mixed's reads and writes.
  std::vector<double> reads = Concat(logs, &ClientLog::read_ms);
  if (!reads.empty()) {
    const int64_t nr = Count(reads);
    m->Add("read_rps", nr / seconds, "1/s", nr);
    m->Add("read_p50_ms", Percentile(reads, 0.5), "ms", nr);
    m->Add("read_p99_ms", Percentile(reads, 0.99), "ms", nr);
  }
  std::vector<double> writes = Concat(logs, &ClientLog::write_ms);
  if (!writes.empty()) {
    const int64_t nw = Count(writes);
    std::vector<double> late = Concat(logs, &ClientLog::lateness_ms);
    m->Add("write_p50_ms", Percentile(writes, 0.5), "ms", nw);
    m->Add("write_p90_ms", Percentile(writes, 0.9), "ms", nw);
    m->Add("writer_lateness_p99_ms", Percentile(late, 0.99), "ms",
           Count(late));
  }
}

void AddLayerMetrics(const WindowCounters& before, const WindowCounters& after,
                     const std::vector<ClientLog>& logs,
                     const DirectPass& direct,
                     const std::vector<CounterSample>& sched,
                     double traced_rps, double untraced_rps, MetricSet* m) {
  const retro::MetricsRegistry::Snapshot reg =
      after.registry.DeltaFrom(before.registry);
  auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter(name));
  };
  const double runs = counter("rql.runs");
  const double iters = counter("rql.iterations");
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  std::vector<double> rtt = Concat(logs, &ClientLog::rtt_us);
  // Round trips of one request type minus a bare round trip: the server
  // work behind that request.
  auto minus_rtt = [&](const std::vector<double>& v) {
    return v.empty() ? 0 : p50(v) - p50(rtt);
  };
  std::vector<double> queued, active;
  for (const CounterSample& s : sched) {
    queued.push_back(static_cast<double>(s.queued));
    active.push_back(static_cast<double>(s.active));
  }
  std::vector<double> submit = Concat(logs, &ClientLog::submit_us);
  std::vector<double> mirror = Concat(logs, &ClientLog::mirror_us);
  std::vector<double> update = Concat(logs, &ClientLog::update_us);
  std::vector<double> declare = Concat(logs, &ClientLog::declare_us);

  m->Add("server.rtt_us", p50(rtt), "us", Count(rtt));
  m->Add("server.submit_us", p50(submit), "us", Count(submit));
  m->Add("server.mirror_us", minus_rtt(mirror), "us", Count(mirror));
  m->Add("server.overhead_us", p50(direct.overhead_us), "us",
         Count(direct.overhead_us));
  m->Add("server.queue_depth", Mean(queued), "runs", Count(queued));
  m->Add("server.active_runs", Mean(active), "runs", Count(active));
  m->Add("server.admission_rejects",
         static_cast<double>(after.admission_rejects -
                             before.admission_rejects),
         "count");

  m->Add("rql.run_us", p50(direct.run_us), "us", Count(direct.run_us));
  m->Add("rql.self_us", Mean(direct.self_us), "us", Count(direct.self_us));
  m->Add("rql.udf_us_per_run", Ratio(counter("rql.udf_us"), runs), "us");
  m->Add("rql.result_probes_per_run",
         Ratio(counter("rql.result_probes"), runs), "count");
  m->Add("rql.result_inserts_per_run",
         Ratio(counter("rql.result_inserts"), runs), "count");
  m->Add("rql.result_updates_per_run",
         Ratio(counter("rql.result_updates"), runs), "count");
  m->Add("rql.qq_rows_per_iter", Ratio(counter("rql.qq_rows"), iters),
         "rows");
  m->Add("rql.qq_parses_per_run", Ratio(counter("rql.qq_parse_count"), runs),
         "count");
  // A CostModel charge, not a measurement: reported beside the times and
  // never added to one.
  m->Add("rql.sim_io_ms_per_run", Ratio(counter("rql.io_us"), runs) / 1000.0,
         "ms");
  m->Add("rql.asof_within_run_share",
         Ratio(static_cast<double>(direct.asof_within_run),
               static_cast<double>(direct.runs)),
         "ratio", direct.runs);

  m->Add("retro.open_snapshot_us", p50(direct.open_us), "us",
         Count(direct.open_us));
  m->Add("retro.maplog_pages_per_iter",
         Ratio(counter("rql.maplog_pages"), iters), "pages");
  m->Add("retro.pagelog_pages_per_iter",
         Ratio(counter("rql.pagelog_pages"), iters), "pages");
  m->Add("retro.db_pages_per_iter", Ratio(counter("rql.db_pages"), iters),
         "pages");
  m->Add("retro.shared_spt_builds",
         static_cast<double>(after.shared_spt_builds -
                             before.shared_spt_builds),
         "count");
  m->Add("retro.update_us", minus_rtt(update), "us", Count(update));
  m->Add("retro.declare_us", minus_rtt(declare), "us", Count(declare));

  const storage::BufferPoolStats& p0 = before.snapshot_cache;
  const storage::BufferPoolStats& p1 = after.snapshot_cache;
  const double pool_hits = static_cast<double>(p1.hits - p0.hits);
  const double pool_misses = static_cast<double>(p1.misses - p0.misses);
  m->Add("storage.snapshot_cache.hit_ratio",
         Ratio(pool_hits, pool_hits + pool_misses), "ratio");
  m->Add("storage.snapshot_cache.evictions",
         static_cast<double>(p1.evictions - p0.evictions), "count");
  m->Add("storage.snapshot_cache.coalesced_loads",
         static_cast<double>(p1.coalesced_loads - p0.coalesced_loads),
         "count");

  m->Add("sql.parse_us", p50(direct.parse_us), "us", Count(direct.parse_us));
  m->Add("sql.qq_current_us", p50(direct.current_us), "us",
         Count(direct.current_us));
  m->Add("sql.qq_asof_us", p50(direct.asof_us), "us", Count(direct.asof_us));
  m->Add("sql.prepared_asof_us", p50(direct.prepared_us), "us",
         Count(direct.prepared_us));
  const sql::SharedScanCache::Stats& s0 = before.scan_cache;
  const sql::SharedScanCache::Stats& s1 = after.scan_cache;
  const double scan_hits = static_cast<double>(s1.shared_hits - s0.shared_hits);
  const double scan_misses = static_cast<double>(s1.misses - s0.misses);
  m->Add("sql.scan_cache.hit_ratio",
         Ratio(scan_hits, scan_hits + scan_misses), "ratio");
  m->Add("sql.scan_cache.coalesced_decodes",
         static_cast<double>(s1.coalesced_decodes - s0.coalesced_decodes),
         "count");
  m->Add("sql.scan_cache.evictions",
         static_cast<double>(s1.evictions - s0.evictions), "count");
  m->Add("sql.scan_cache.bytes", static_cast<double>(s1.bytes), "bytes");

  m->Add("trace_overhead_pct",
         untraced_rps > 0 ? (untraced_rps - traced_rps) / untraced_rps * 100
                          : 0,
         "%");
}

/// Writes DIR/trace_<workload>.json (spans and scheduler samples) and
/// DIR/layers_<workload>.json (the metric set).
Status WriteTraceFiles(const Args& args, const std::vector<ClientLog>& logs,
                       const std::vector<CounterSample>& sched,
                       int64_t origin_us, const MetricSet& metrics) {
  std::vector<Span> spans;
  for (const ClientLog& log : logs) {
    spans.insert(spans.end(), log.spans.begin(), log.spans.end());
  }
  const std::string trace_path =
      args.trace_dir + "/trace_" + args.workload + ".json";
  const std::string layers_path =
      args.trace_dir + "/layers_" + args.workload + ".json";
  if (!WriteChromeTrace(trace_path, spans, sched, origin_us)) {
    return Status::IoError("cannot write " + trace_path);
  }
  std::FILE* f = std::fopen(layers_path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + layers_path);
  std::fprintf(f, "{\"workload\": %s, \"seed\": %llu, \"metrics\": %s}\n",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed),
               metrics.Json().c_str());
  if (std::fclose(f) != 0) {
    return Status::IoError("cannot write " + layers_path);
  }
  std::printf("trace: %s, %s\n", trace_path.c_str(), layers_path.c_str());
  return Status::OK();
}

int Fail(const char* what, const Status& st) {
  std::fprintf(stderr, "rqlbench: %s: %s\n", what, st.ToString().c_str());
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: rqlbench --workload W [--seed N] [--seconds S] "
                 "[--setups K] [--trace-dir DIR --untraced-rps X]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "rqlbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const bool traced = !args.trace_dir.empty();
  const int clients = static_cast<int>(workload->roles.size());

  Shared shared;
  shared.workload = workload;
  // Relative, so it lands in the working directory and stays well under
  // the sun_path limit however deep that directory is.
  shared.socket = "rqlbench-" + std::to_string(::getpid()) + ".sock";
  shared.seed = args.seed;
  shared.traced = traced;

  retro::MetricsRegistry registry;  // outlives every server using it
  Fixture fixture;
  std::vector<double> setup_s;
  Status st = SetUp(args, &shared, &registry, &fixture, &setup_s);
  if (!st.ok()) return Fail("set-up", st);
  tpch::History* history = fixture.history.get();
  server::Server* srv = fixture.server.get();
  if (workload->snapshot_cache_pages > 0) {
    history->data()->store()->snapshot_cache()->set_capacity(
        workload->snapshot_cache_pages);
  }

  std::vector<ClientLog> logs(clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back(RunClient, c, &shared, &logs[c]);
  }
  shared.gate.WaitReady(clients);
  const WindowCounters before = ReadCounters(&registry, srv);
  shared.t0_us = NowMicros();
  shared.deadline_us =
      shared.t0_us + static_cast<int64_t>(args.seconds * 1e6);
  shared.gate.Open();
  std::vector<CounterSample> sched;
  for (int64_t now = NowMicros(); now < shared.deadline_us; now = NowMicros()) {
    int64_t sleep_us = shared.deadline_us - now;
    if (traced) {
      sched.push_back({now, srv->scheduler()->queued(),
                       srv->scheduler()->active()});
      sleep_us = std::min(sleep_us, kSampleIntervalUs);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
  }
  for (std::thread& t : threads) t.join();
  const WindowCounters after = ReadCounters(&registry, srv);
  srv->Stop();

  int64_t attempted = 0, failed = 0;
  for (int c = 0; c < clients; ++c) {
    attempted += logs[c].attempted;
    failed += logs[c].failed;
    if (!logs[c].error.empty()) {
      std::fprintf(stderr, "rqlbench: client %d failed: %s\n", c,
                   logs[c].error.c_str());
    }
  }
  Result<int64_t> mismatches = VerifyResultTables(history, logs);
  if (!mismatches.ok()) return Fail("oracle", mismatches.status());
  failed += *mismatches;

  MetricSet metrics;
  AddEndToEndMetrics(setup_s, logs, args.seconds, &metrics);
  if (traced) {
    DirectPass direct;
    st = RunDirectPass(history, srv, logs, &direct);
    if (!st.ok()) return Fail("direct pass", st);
    const double traced_rps =
        Count(Concat(logs, &ClientLog::primary_ms)) / args.seconds;
    AddLayerMetrics(before, after, logs, direct, sched, traced_rps,
                    args.untraced_rps, &metrics);
    st = WriteTraceFiles(args, logs, sched, shared.t0_us, metrics);
    if (!st.ok()) return Fail("trace output", st);
  }

  const bool correct = failed == 0;
  std::printf("rqlbench %s seed=%llu seconds=%g clients=%d traced=%d: "
              "%lld ops, %lld failed\n",
              workload->name, static_cast<unsigned long long>(args.seed),
              args.seconds, clients, traced ? 1 : 0,
              static_cast<long long>(attempted),
              static_cast<long long>(failed));
  metrics.PrintTable(stdout);
  std::printf(
      "rqlbench-result {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
      "%s, \"traced\": %s, \"sf\": %s, \"snapshots\": %d, \"clients\": %d, "
      "\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      workload->name, static_cast<unsigned long long>(args.seed),
      FormatNumber(args.seconds).c_str(), traced ? "true" : "false",
      FormatNumber(kScaleFactor).c_str(), kHistorySnapshots, clients,
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.Json().c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rqlbench

int main(int argc, char** argv) { return rqlbench::Main(argc, argv); }
