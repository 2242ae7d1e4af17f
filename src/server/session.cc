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

/// Whether `prefix` holds exactly the first rows of `rows`.
bool IsPrefix(const std::vector<sql::Row>& prefix,
              const std::vector<sql::Row>& rows) {
  return prefix.size() <= rows.size() &&
         std::equal(prefix.begin(), prefix.end(), rows.begin(),
                    [](const sql::Row& x, const sql::Row& y) {
                      return std::equal(x.begin(), x.end(), y.begin(),
                                        y.end(), sql::IdenticalValues);
                    });
}

}  // namespace

Result<std::shared_ptr<const SnapIdsImage>> SnapIdsImage::Load(
    sql::Database* meta, const SnapIdsImage* last) {
  auto image = std::make_shared<SnapIdsImage>();
  RQL_ASSIGN_OR_RETURN(image->table, meta->Query("SELECT * FROM SnapIds"));
  if (last != nullptr) {
    image->epoch = IsPrefix(last->table.rows, image->table.rows)
                       ? last->epoch
                       : last->epoch + 1;
  }
  return std::shared_ptr<const SnapIdsImage>(std::move(image));
}

Status Session::ReplaceSnapIds(const SnapIdsImage& image) {
  const std::vector<sql::Row>& rows = image.table.rows;
  // Snapshots are declared at the end of SnapIds: within the epoch last
  // mirrored, only the rows past the mirrored count are new.
  const bool append = mirrored_.has_value() &&
                      mirrored_->epoch == image.epoch &&
                      mirrored_->rows <= rows.size();
  const size_t from = append ? mirrored_->rows : 0;
  if (append && from == rows.size()) return Status::OK();
  mirrored_.reset();
  RQL_ASSIGN_OR_RETURN(bool own_txn, WriteSnapIds(rows, from));
  if (own_txn) mirrored_ = Generation{image.epoch, rows.size()};
  return Status::OK();
}

Status Session::ReplaceSnapIds(const sql::QueryResult& canonical) {
  mirrored_.reset();
  return WriteSnapIds(canonical.rows, 0).status();
}

Result<bool> Session::WriteSnapIds(const std::vector<sql::Row>& rows,
                                   size_t from) {
  // One transaction, not one commit per row. A rewrite creates the table
  // afresh: a run or statement may have replaced it with one of another
  // shape.
  const bool own_txn = !meta_->store()->in_transaction();
  if (own_txn) RQL_RETURN_IF_ERROR(meta_->Exec("BEGIN"));
  Status s = Status::OK();
  if (from == 0) {
    s = meta_->Exec("DROP TABLE IF EXISTS SnapIds");
    if (s.ok()) s = engine_->EnsureSnapIds();
  }
  for (size_t i = from; s.ok() && i < rows.size(); ++i) {
    s = meta_->AppendRow("SnapIds", rows[i]).status();
  }
  if (own_txn) {
    if (s.ok()) {
      s = meta_->Exec("COMMIT");
    } else {
      (void)meta_->Exec("ROLLBACK");
    }
  }
  RQL_RETURN_IF_ERROR(s);
  return own_txn;
}

Result<sql::QueryResult> Session::MetaSql(const SnapIdsImage& image,
                                          std::string_view sql) {
  RQL_RETURN_IF_ERROR(ReplaceSnapIds(image));
  const storage::PageStore* pages = meta_->store()->page_store();
  const uint64_t mutations = pages->mutations();
  Result<sql::QueryResult> result = meta_->Query(sql);
  Status finish = engine_->FinishUdfRuns();
  // A statement that wrote anything may have written SnapIds.
  if (pages->mutations() != mutations) mirrored_.reset();
  if (result.ok()) RQL_RETURN_IF_ERROR(finish);
  return result;
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
