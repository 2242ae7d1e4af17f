#ifndef RQL_SERVER_SERVER_H_
#define RQL_SERVER_SERVER_H_

// The RQL server: a Unix-domain-socket daemon front end over one
// SnapshotStore. Each connection is a Session (attached handle + private
// metadata database + engine, see session.h); RQL mechanism runs go
// through the RunScheduler (admission control, per-session fairness,
// worker budgets, cooperative cancel, see scheduler.h); frames are the
// wire.h protocol.
//
// Concurrency model:
//   * AS OF SELECT scripts run concurrently, each on its session's
//     attached handle — the store's reader locks, snapshot page cache,
//     SharedScanCache and coalesced SPT builds do the sharing, exactly as
//     bench_concurrent_runs exercises in-process.
//   * Everything that writes — non-AS-OF SQL, snapshot declaration,
//     truncation — executes on the owning handle under one server-wide
//     write mutex, and the canonical SnapIds table lives in the owner's
//     metadata database. Declaration and truncation republish it as an
//     immutable SnapIdsImage; runs and .meta statements take the current
//     image without that mutex and mirror it into their session's
//     private metadata database.
//   * Attached catalogs are loaded at session creation and not refreshed
//     on concurrent DDL (the Database::Attach contract); schema listings
//     therefore always read the owner catalog.
//
// Shutdown and disconnect are cancellation-safe: the session's queued and
// running runs are cancelled and drained (scheduler slots and worker
// budget released, partial result tables dropped by the engine's failed-
// run path, store pins released by the attached handle's destructor)
// before the session is destroyed, so the store stays fully usable by the
// remaining sessions.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "retro/metrics.h"
#include "rql/memo_table.h"
#include "rql/rql.h"
#include "server/scheduler.h"
#include "server/session.h"
#include "server/wire.h"
#include "sql/database.h"
#include "sql/shared_scan_cache.h"
#include "storage/env.h"

namespace rql::server {

struct ServerOptions {
  /// Filesystem path of the Unix-domain listening socket (unlinked and
  /// rebound on Start).
  std::string socket_path;
  /// Concurrent sessions; kHello beyond it is rejected with kError.
  int max_sessions = 32;
  RunScheduler::Options scheduler;
  /// Sessions idle longer than this are disconnected by the reaper
  /// (their socket is shut down; teardown then runs the normal
  /// disconnect path). 0 disables the timeout.
  int64_t idle_timeout_us = 0;
  /// Base RqlOptions for session engines. The server injects
  /// shared_scan_cache, memo, metrics, session_id and the per-run
  /// cancel/run_id wiring itself; everything else (profile, workers,
  /// ...) is taken as configured here. The default serves the fast
  /// profile.
  RqlOptions engine = [] {
    RqlOptions o;
    o.profile = RqlProfile::kFast;
    return o;
  }();
  /// Receives the server gauges (server.active_sessions,
  /// server.queued_runs, server.active_runs, server.admission_rejects,
  /// server.sessions_opened, server.runs_completed). Defaults to
  /// MetricsRegistry::Default().
  retro::MetricsRegistry* metrics = nullptr;
};

class Server {
 public:
  /// Serves databases owned by the caller (tests and benches over an
  /// existing tpch::History). `data`/`meta` must outlive the server.
  static Result<std::unique_ptr<Server>> Create(sql::Database* data,
                                                sql::Database* meta,
                                                ServerOptions options);

  /// Opens (or creates) `<prefix>_data` / `<prefix>_meta` in `env` and
  /// serves them — the rql_serverd entry point. `env` must outlive the
  /// server.
  static Result<std::unique_ptr<Server>> Open(storage::Env* env,
                                              const std::string& prefix,
                                              ServerOptions options);

  ~Server();

  /// Binds the socket and starts the accept, dispatcher and reaper
  /// threads.
  Status Start();

  /// Stops accepting, disconnects every session (cancelling its runs) and
  /// joins all threads. Idempotent; the destructor calls it.
  void Stop();

  const std::string& socket_path() const { return options_.socket_path; }

  /// The kStats document (also returned over the wire): server, engine
  /// (the served profile, by RqlProfileName), scheduler, shared scan
  /// cache, memo and store sections. The memo's hits and misses are the registry's
  /// rql.memo_hits / rql.memo_misses counters.
  std::string StatsJson();

  RunScheduler* scheduler() { return scheduler_.get(); }
  sql::SharedScanCache* scan_cache() { return &scan_cache_; }
  retro::MemoTable* memo() { return &memo_; }
  /// The owner databases. Snapshots are declared and truncated through
  /// the server (kSnapshot, kTruncate), which republishes SnapIds; a
  /// SnapIds write made on meta() directly is not served.
  sql::Database* data() { return data_; }
  sql::Database* meta() { return meta_; }
  /// The canonical SnapIds as last published, loaded from meta() when the
  /// server was made: O(1), without the write lock.
  std::shared_ptr<const SnapIdsImage> snap_ids();
  int64_t sessions_opened() const { return sessions_opened_.load(); }
  int64_t active_sessions() const { return active_sessions_.load(); }

 private:
  struct Conn {
    int fd = -1;
    std::thread thread;
    /// Serializes frame writes: request replies from the connection
    /// thread interleave with out-of-band kRunDone frames pushed by
    /// scheduler dispatch threads.
    std::mutex write_mu;
    std::unique_ptr<Session> session;
    std::atomic<int64_t> last_active_us{0};
    std::atomic<bool> done{false};
  };

  Server() = default;
  static Result<std::unique_ptr<Server>> Finish(ServerOptions options,
                                                std::unique_ptr<Server> s);

  void AcceptLoop();
  void ReaperLoop();
  void HandleConn(Conn* conn);
  /// One request frame; returns false when the connection should close.
  bool HandleFrame(Conn* conn, const Frame& frame);
  Status SendReply(Conn* conn, MsgType type, const std::string& payload);
  Status SendError(Conn* conn, const Status& error);
  Status SendResult(Conn* conn, const sql::QueryResult& result);
  /// Publishes the owner's SnapIds, read in full, after a declaration or
  /// a truncation, failed or not. Caller holds write_mu_.
  void RepublishSnapIds();
  /// True when every statement of `sql` is a SELECT with an AS OF clause —
  /// the read-only shape that may run on the session's attached handle
  /// without the write lock.
  static bool IsSnapshotReadScript(const std::string& sql);

  Status HandleRqlRun(Conn* conn, const Frame& frame);

  ServerOptions options_;
  retro::MetricsRegistry* metrics_ = nullptr;

  // Set by Open (owning) — Create leaves them empty and borrows.
  std::unique_ptr<sql::Database> owned_data_;
  std::unique_ptr<sql::Database> owned_meta_;
  sql::Database* data_ = nullptr;
  sql::Database* meta_ = nullptr;
  std::unique_ptr<RqlEngine> owner_engine_;
  /// Serializes every use of the owner handles (writes, schema listings,
  /// snapshot declaration, truncation).
  std::mutex write_mu_;
  /// Guards `snap_ids_`, and nothing else: a capture copies one pointer.
  std::mutex snap_ids_mu_;
  /// Equal to the owner's SELECT * FROM SnapIds. Replaced, never changed
  /// in place, under write_mu_ by kSnapshot and kTruncate before they
  /// reply.
  std::shared_ptr<const SnapIdsImage> snap_ids_;

  sql::SharedScanCache scan_cache_;
  /// The memo every session engine and the owner engine share. It lives
  /// and dies with the server, and MemoTableOptions{} bounds it.
  retro::MemoTable memo_;
  std::unique_ptr<RunScheduler> scheduler_;

  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::thread accept_thread_;
  std::thread reaper_thread_;

  std::mutex conns_mu_;
  std::map<uint64_t, std::unique_ptr<Conn>> conns_;
  uint64_t next_conn_id_ = 1;
  std::atomic<uint64_t> next_session_id_{1};
  std::atomic<int64_t> active_sessions_{0};
  std::atomic<int64_t> sessions_opened_{0};
  std::atomic<int64_t> runs_completed_{0};
};

}  // namespace rql::server

#endif  // RQL_SERVER_SERVER_H_
