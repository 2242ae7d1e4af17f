#ifndef RQL_SERVER_SESSION_H_
#define RQL_SERVER_SESSION_H_

// One connected client of rql_serverd: an attached sql::Database handle
// over the server's SnapshotStore, a private in-memory metadata database
// (SnapIds mirror, RQL result tables), an RqlEngine wired to the server's
// SharedScanCache, and the session's prepared-statement table with its
// per-statement plan state (PlanCache, AS OF binding).
//
// This is exactly the bench_concurrent_runs client shape, held
// server-side: concurrent sessions share the store — snapshot page cache,
// SharedScanCache single-flight decodes, coalesced SPT builds — while
// everything per-client (current_snapshot, run stats, result tables,
// prepared plans) stays isolated. Destroying the session releases it all:
// prepared statements drop their plan caches, the engine drops run state,
// and the attached handle detaches from the store.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "rql/rql.h"
#include "server/scheduler.h"
#include "sql/database.h"
#include "storage/env.h"

namespace rql::server {

class Session {
 public:
  /// Attaches to `store` and builds the private metadata database. `base`
  /// carries the server's engine wiring (shared_scan_cache, metrics,
  /// profile); the session id is stamped into it for tracing.
  static Result<std::unique_ptr<Session>> Create(uint64_t id,
                                                 retro::SnapshotStore* store,
                                                 const RqlOptions& base);
  ~Session();

  uint64_t id() const { return id_; }
  sql::Database* data() { return data_.get(); }
  sql::Database* meta() { return meta_.get(); }
  RqlEngine* engine() { return engine_.get(); }

  /// Serializes everything touching the session's engine/handles: the
  /// connection thread's request handling and the scheduler's run bodies.
  /// kCancelRun and kStats deliberately do not take it, so they work while
  /// a run holds it.
  std::mutex mu;

  /// Replaces the private SnapIds mirror with `canonical` (the table read
  /// from the owner's metadata database), so Qs sees every snapshot
  /// declared by any client up to this request. Rows equal to the ones
  /// last mirrored leave the table as it is; others are rewritten in one
  /// transaction.
  Status ReplaceSnapIds(const sql::QueryResult& canonical);

  /// Forgets the rows last mirrored, so the next ReplaceSnapIds rewrites
  /// the table: a kMetaSql statement, or a run whose result table is
  /// SnapIds, may have changed it.
  void ForgetSnapIdsMirror() { mirrored_.reset(); }

  // --- prepared statements (wire kPrepare..kClosePrepared) ----------------
  Result<uint32_t> Prepare(const std::string& sql);
  Status BindAsOf(uint32_t stmt_id, retro::SnapshotId snap);
  Status BindValue(uint32_t stmt_id, int index, sql::Value value);
  Result<sql::QueryResult> ExecutePrepared(uint32_t stmt_id);
  Status ClosePrepared(uint32_t stmt_id);

  // --- in-flight runs (for kCancelRun and disconnect) ---------------------
  void TrackRun(uint64_t run_id, std::shared_ptr<RunScheduler::Ticket> t);
  std::shared_ptr<RunScheduler::Ticket> FindRun(uint64_t run_id);
  void ForgetRun(uint64_t run_id);

  // --- idle accounting (read by the server's reaper thread) ---------------
  void Touch() { last_active_us_.store(NowMicros()); }
  int64_t last_active_us() const { return last_active_us_.load(); }

 private:
  Session(uint64_t id) : id_(id) { Touch(); }

  Result<sql::PreparedStatement*> FindStmt(uint32_t stmt_id);

  const uint64_t id_;
  std::unique_ptr<storage::InMemoryEnv> meta_env_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<sql::Database> data_;  // attached; store outlives us
  std::unique_ptr<RqlEngine> engine_;

  // The canonical rows the private SnapIds holds; empty when unknown.
  std::optional<std::vector<sql::Row>> mirrored_;

  std::map<uint32_t, std::unique_ptr<sql::PreparedStatement>> stmts_;
  uint32_t next_stmt_id_ = 1;

  std::mutex runs_mu_;
  std::map<uint64_t, std::shared_ptr<RunScheduler::Ticket>> runs_;

  std::atomic<int64_t> last_active_us_{0};
};

}  // namespace rql::server

#endif  // RQL_SERVER_SESSION_H_
