#include "server/session.h"

#include <algorithm>
#include <utility>

namespace rql::server {

Result<std::unique_ptr<Session>> Session::Create(
    uint64_t id, retro::SnapshotStore* store, const RqlOptions& base) {
  std::unique_ptr<Session> session(new Session(id));
  session->meta_env_ = std::make_unique<storage::InMemoryEnv>();
  RQL_ASSIGN_OR_RETURN(session->meta_,
                       sql::Database::Open(session->meta_env_.get(), "meta"));
  RQL_ASSIGN_OR_RETURN(session->data_, sql::Database::Attach(store));
  RqlOptions options = base;
  options.session_id = id;
  session->engine_ = std::make_unique<RqlEngine>(
      session->data_.get(), session->meta_.get(), options);
  RQL_RETURN_IF_ERROR(session->engine_->EnsureSnapIds());
  RQL_RETURN_IF_ERROR(session->engine_->RegisterUdfs());
  return session;
}

Session::~Session() = default;

namespace {

bool IdenticalRows(const std::vector<sql::Row>& a,
                   const std::vector<sql::Row>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const sql::Row& x, const sql::Row& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(), sql::IdenticalValues);
                    });
}

}  // namespace

Status Session::ReplaceSnapIds(const sql::QueryResult& canonical) {
  if (mirrored_.has_value() && IdenticalRows(*mirrored_, canonical.rows)) {
    return Status::OK();
  }
  mirrored_.reset();
  // One transaction, not one commit per row. Inside a transaction the
  // client left open, the rewrite joins it; the client's next kMetaSql
  // forgets the mirror. The table is created afresh: a run or statement
  // may have replaced it with one of another shape.
  const bool own_txn = !meta_->store()->in_transaction();
  if (own_txn) RQL_RETURN_IF_ERROR(meta_->Exec("BEGIN"));
  Status s = meta_->Exec("DROP TABLE IF EXISTS SnapIds");
  if (s.ok()) s = engine_->EnsureSnapIds();
  for (size_t i = 0; s.ok() && i < canonical.rows.size(); ++i) {
    s = meta_->AppendRow("SnapIds", canonical.rows[i]).status();
  }
  if (own_txn) {
    if (s.ok()) {
      s = meta_->Exec("COMMIT");
    } else {
      (void)meta_->Exec("ROLLBACK");
    }
  }
  if (s.ok()) mirrored_ = canonical.rows;
  return s;
}

Result<sql::PreparedStatement*> Session::FindStmt(uint32_t stmt_id) {
  auto it = stmts_.find(stmt_id);
  if (it == stmts_.end()) {
    return Status::InvalidArgument("unknown prepared statement " +
                                   std::to_string(stmt_id));
  }
  return it->second.get();
}

Result<uint32_t> Session::Prepare(const std::string& sql) {
  RQL_ASSIGN_OR_RETURN(auto stmt, data_->Prepare(sql));
  uint32_t stmt_id = next_stmt_id_++;
  stmts_[stmt_id] = std::move(stmt);
  return stmt_id;
}

Status Session::BindAsOf(uint32_t stmt_id, retro::SnapshotId snap) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  return stmt->BindAsOf(snap);
}

Status Session::BindValue(uint32_t stmt_id, int index, sql::Value value) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  return stmt->BindValue(index, std::move(value));
}

Result<sql::QueryResult> Session::ExecutePrepared(uint32_t stmt_id) {
  RQL_ASSIGN_OR_RETURN(sql::PreparedStatement * stmt, FindStmt(stmt_id));
  sql::QueryResult result;
  RQL_RETURN_IF_ERROR(stmt->Execute(
      [&result](const std::vector<std::string>& columns,
                const sql::Row& row) {
        if (result.columns.empty()) result.columns = columns;
        result.rows.push_back(row);
        return Status::OK();
      }));
  return result;
}

Status Session::ClosePrepared(uint32_t stmt_id) {
  if (stmts_.erase(stmt_id) == 0) {
    return Status::InvalidArgument("unknown prepared statement " +
                                   std::to_string(stmt_id));
  }
  return Status::OK();
}

void Session::TrackRun(uint64_t run_id,
                       std::shared_ptr<RunScheduler::Ticket> t) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  // Keep the registry bounded: finished runs no longer need a cancel
  // handle (cancelling a completed ticket is a no-op anyway).
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (it->second->finished.load(std::memory_order_acquire)) {
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  runs_[run_id] = std::move(t);
}

std::shared_ptr<RunScheduler::Ticket> Session::FindRun(uint64_t run_id) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  auto it = runs_.find(run_id);
  return it == runs_.end() ? nullptr : it->second;
}

void Session::ForgetRun(uint64_t run_id) {
  std::lock_guard<std::mutex> lock(runs_mu_);
  runs_.erase(run_id);
}

}  // namespace rql::server
