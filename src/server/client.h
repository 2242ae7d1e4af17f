#ifndef RQL_SERVER_CLIENT_H_
#define RQL_SERVER_CLIENT_H_

// Synchronous client for rql_serverd's wire protocol, plus the
// ShellBackend adapter that lets the shared REPL core (server/repl.h)
// drive a remote server exactly like an embedded engine.
//
// The client is single-threaded by design: one request in flight at a
// time, strictly ordered replies — with the one protocol exception of
// kRunDone frames, which the server pushes when a scheduled run
// completes and which may interleave ahead of a reply. ReadReply treats
// them as out-of-band: they are parsed and stashed, and WaitRun consumes
// the stash before blocking on the socket.

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "retro/snapshot_store.h"
#include "server/repl.h"
#include "server/wire.h"
#include "sql/database.h"

namespace rql::server {

class Client {
 public:
  /// Connects, handshakes (kHello/kHelloOk) and returns a ready client.
  static Result<std::unique_ptr<Client>> Connect(
      const std::string& socket_path);
  ~Client();  // best-effort kGoodbye, then close

  uint64_t session_id() const { return session_id_; }

  // --- SQL ------------------------------------------------------------------
  Result<sql::QueryResult> Sql(const std::string& sql);
  Result<sql::QueryResult> MetaSql(const std::string& sql);
  Result<retro::SnapshotId> DeclareSnapshot(const std::string& label);
  Result<sql::QueryResult> ListSnapshots();
  Result<sql::QueryResult> ListSchema(bool indexes);
  Result<std::string> RunStatsText();
  Result<std::string> StatsJson();
  /// Returns the new earliest snapshot id.
  Result<retro::SnapshotId> Truncate(retro::SnapshotId keep_from);

  // --- scheduled RQL runs ---------------------------------------------------
  struct RunResult {
    uint64_t run_id = 0;
    Status status;
    uint32_t iterations = 0;
    /// Server-side wall time of the run (see MsgType::kRunDone).
    int64_t total_us = 0;
    int64_t shared_page_hits = 0;
    int64_t coalesced_decodes = 0;
    int64_t iterations_skipped = 0;
  };

  /// Submits a run; returns its run_id once the scheduler admits it
  /// (kRunQueued). Admission rejection surfaces as the server's Aborted.
  Result<uint64_t> StartRun(Mechanism mechanism, const std::string& qs,
                            const std::string& qq, const std::string& table,
                            const std::string& extra = "", int workers = 1);
  /// Blocks until `run_id`'s kRunDone arrives (or was already stashed).
  Result<RunResult> WaitRun(uint64_t run_id);
  /// Raises the run's cancel flag server-side; the run still completes
  /// with its own kRunDone (Aborted if the cancel won).
  Status CancelRun(uint64_t run_id);

  // --- prepared statements --------------------------------------------------
  Result<uint32_t> Prepare(const std::string& sql);
  Status BindAsOf(uint32_t stmt_id, retro::SnapshotId snap);
  Status BindValue(uint32_t stmt_id, int index, const sql::Value& value);
  Result<sql::QueryResult> ExecPrepared(uint32_t stmt_id);
  Status ClosePrepared(uint32_t stmt_id);

 private:
  Client() = default;

  /// Writes one request and returns the reply of type `want`. A kError
  /// reply decodes into its Status; kRunDone frames read along the way
  /// are stashed, not returned.
  Result<Frame> Roundtrip(MsgType type, const std::string& payload,
                          MsgType want);
  Result<Frame> ReadReply();
  static Result<sql::QueryResult> DecodeResult(const Frame& frame);
  static Result<RunResult> DecodeRunDone(const Frame& frame);

  int fd_ = -1;
  uint64_t session_id_ = 0;
  std::map<uint64_t, RunResult> done_runs_;  // out-of-band kRunDone stash
};

/// ShellBackend over a Client: the socket mode of rql_shell.
class RemoteBackend : public ShellBackend {
 public:
  explicit RemoteBackend(Client* client, std::string banner)
      : client_(client), banner_(std::move(banner)) {}

  Result<sql::QueryResult> DataSql(const std::string& sql) override {
    return client_->Sql(sql);
  }
  Result<sql::QueryResult> MetaSql(const std::string& sql) override {
    return client_->MetaSql(sql);
  }
  Result<retro::SnapshotId> DeclareSnapshot(
      const std::string& label) override {
    return client_->DeclareSnapshot(label);
  }
  Result<sql::QueryResult> Snapshots() override {
    return client_->ListSnapshots();
  }
  Result<sql::QueryResult> ListSchema(bool indexes) override {
    return client_->ListSchema(indexes);
  }
  Result<std::string> RunStatsText() override {
    return client_->RunStatsText();
  }
  Result<retro::SnapshotId> Truncate(retro::SnapshotId keep_from) override {
    return client_->Truncate(keep_from);
  }
  std::string Banner() const override { return banner_; }

 private:
  Client* client_;
  std::string banner_;
};

}  // namespace rql::server

#endif  // RQL_SERVER_CLIENT_H_
