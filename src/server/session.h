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
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "rql/rql.h"
#include "server/scheduler.h"
#include "sql/database.h"
#include "storage/env.h"

namespace rql::server {

/// An immutable copy of the canonical SnapIds table (the owner metadata
/// database's), in its scan order, as the server publishes it. Within one
/// epoch each image extends the one published before it; a table that
/// does not (a truncation) starts the next epoch. (epoch, row count) is
/// the image's generation: images of equal generation hold equal rows.
struct SnapIdsImage {
  uint64_t epoch = 0;
  sql::QueryResult table;

  /// `meta`'s SnapIds, read in full: in `last`'s epoch when `last`'s rows
  /// are its first rows, else in the next one; epoch 0 without `last`.
  static Result<std::shared_ptr<const SnapIdsImage>> Load(
      sql::Database* meta, const SnapIdsImage* last);
};

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

  /// Brings the private SnapIds mirror to `image`, so Qs sees every
  /// snapshot declared by any client up to this request. The session
  /// remembers the generation it mirrored last: the same generation
  /// writes nothing, a longer one of the same epoch appends only the new
  /// rows, and anything else (a truncation, a forgotten mirror) rewrites
  /// the table. Either write is one transaction.
  Status ReplaceSnapIds(const SnapIdsImage& image);

  /// Rewrites the private SnapIds with `canonical`'s rows, an image of
  /// unknown generation: the next refresh rewrites it again.
  Status ReplaceSnapIds(const sql::QueryResult& canonical);

  /// Forgets the generation last mirrored, so the next ReplaceSnapIds
  /// rewrites the table: a run whose result table is SnapIds has changed
  /// it.
  void ForgetSnapIdsMirror() { mirrored_.reset(); }

  /// Runs `sql` (kMetaSql) on the metadata database after mirroring
  /// `image`, and finishes the UDF runs it started. The mirror is
  /// forgotten only when the statement wrote: a pure read such as
  /// "SELECT COUNT(*) FROM SnapIds" lets the next refresh append.
  Result<sql::QueryResult> MetaSql(const SnapIdsImage& image,
                                   std::string_view sql);

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

  /// Writes `rows` from `from` on into the private SnapIds, rewriting the
  /// table when `from` is 0, in one transaction. True when that
  /// transaction was the session's own; inside one the client left open,
  /// the write joins it, and the client may still roll it back.
  Result<bool> WriteSnapIds(const std::vector<sql::Row>& rows, size_t from);

  const uint64_t id_;
  std::unique_ptr<storage::InMemoryEnv> meta_env_;
  std::unique_ptr<sql::Database> meta_;
  std::unique_ptr<sql::Database> data_;  // attached; store outlives us
  std::unique_ptr<RqlEngine> engine_;

  /// The generation of the image the private SnapIds holds; empty when
  /// unknown.
  struct Generation {
    uint64_t epoch = 0;
    size_t rows = 0;
  };
  std::optional<Generation> mirrored_;

  std::map<uint32_t, std::unique_ptr<sql::PreparedStatement>> stmts_;
  uint32_t next_stmt_id_ = 1;

  std::mutex runs_mu_;
  std::map<uint64_t, std::shared_ptr<RunScheduler::Ticket>> runs_;

  std::atomic<int64_t> last_active_us_{0};
};

}  // namespace rql::server

#endif  // RQL_SERVER_SESSION_H_
