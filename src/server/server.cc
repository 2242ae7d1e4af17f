#include "server/server.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <utility>
#include <variant>

#include "common/clock.h"
#include "server/repl.h"
#include "sql/parser.h"
#include "sql/schema.h"
#include "sql/value.h"

namespace rql::server {

namespace {

constexpr int kPollIntervalMs = 100;

/// Closes `fd` ignoring EINTR quirks; -1 tolerated.
void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Create(sql::Database* data,
                                               sql::Database* meta,
                                               ServerOptions options) {
  std::unique_ptr<Server> s(new Server());
  s->data_ = data;
  s->meta_ = meta;
  return Finish(std::move(options), std::move(s));
}

Result<std::unique_ptr<Server>> Server::Open(storage::Env* env,
                                             const std::string& prefix,
                                             ServerOptions options) {
  std::unique_ptr<Server> s(new Server());
  RQL_ASSIGN_OR_RETURN(s->owned_data_,
                       sql::Database::Open(env, prefix + "_data"));
  RQL_ASSIGN_OR_RETURN(s->owned_meta_,
                       sql::Database::Open(env, prefix + "_meta"));
  s->data_ = s->owned_data_.get();
  s->meta_ = s->owned_meta_.get();
  return Finish(std::move(options), std::move(s));
}

Result<std::unique_ptr<Server>> Server::Finish(ServerOptions options,
                                               std::unique_ptr<Server> s) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("ServerOptions::socket_path is required");
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   options.socket_path);
  }
  s->options_ = std::move(options);
  s->metrics_ = s->options_.metrics != nullptr
                    ? s->options_.metrics
                    : retro::MetricsRegistry::Default();
  // Wire every session's engine into the store-scoped sharing machinery:
  // one SharedScanCache and one memo for all sessions, coalesced SPT
  // builds in the store — the bench_concurrent_runs "shared"
  // configuration, always on for the daemon. A memo entry replays only
  // while every page version it recorded still resolves the same, so
  // sessions reuse each other's iterations without trusting each other.
  s->options_.engine.shared_scan_cache = &s->scan_cache_;
  s->options_.engine.memo = s->memo_.get();
  s->options_.engine.metrics = s->metrics_;
  s->data_->store()->set_share_spt_builds(true);
  // The owner engine handles snapshot declaration and truncation; giving
  // it the shared cache and memo keeps TruncateHistory's invalidation
  // contract.
  RqlOptions owner_options = s->options_.engine;
  owner_options.session_id = 0;
  s->owner_engine_ =
      std::make_unique<RqlEngine>(s->data_, s->meta_, owner_options);
  RQL_RETURN_IF_ERROR(s->owner_engine_->EnsureSnapIds());
  s->scheduler_ = std::make_unique<RunScheduler>(s->options_.scheduler);
  return s;
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::InvalidArgument("server already started");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  ::unlink(options_.socket_path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st =
        Status::IoError("bind " + options_.socket_path + ": " +
                        std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st = Status::IoError(std::string("listen: ") +
                                std::strerror(errno));
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return st;
  }

  metrics_->SetGauge("server.active_sessions",
                     [this] { return active_sessions_.load(); });
  metrics_->SetGauge("server.sessions_opened",
                     [this] { return sessions_opened_.load(); });
  metrics_->SetGauge("server.queued_runs",
                     [this] { return scheduler_->queued(); });
  metrics_->SetGauge("server.active_runs",
                     [this] { return scheduler_->active(); });
  metrics_->SetGauge("server.admission_rejects",
                     [this] { return scheduler_->admission_rejects(); });
  metrics_->SetGauge("server.runs_completed",
                     [this] { return runs_completed_.load(); });

  stop_.store(false);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  reaper_thread_ = std::thread([this] { ReaperLoop(); });
  return Status::OK();
}

void Server::Stop() {
  if (!started_) return;
  started_ = false;
  stop_.store(true);
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (reaper_thread_.joinable()) reaper_thread_.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;

  // Wake every connection thread; each runs its own teardown (cancelling
  // the session's runs through the scheduler) before exiting.
  std::map<uint64_t, std::unique_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  for (auto& [id, conn] : conns) {
    if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (auto& [id, conn] : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    CloseFd(conn->fd);
  }
  scheduler_->Shutdown();
  metrics_->RemoveGaugesWithPrefix("server.");
  ::unlink(options_.socket_path.c_str());
}

void Server::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    int n = ::poll(&pfd, 1, kPollIntervalMs);
    if (n <= 0) continue;
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    if (stop_.load()) {
      CloseFd(fd);
      return;
    }
    std::lock_guard<std::mutex> lock(conns_mu_);
    uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->last_active_us.store(NowMicros());
    Conn* raw = conn.get();
    conns_[id] = std::move(conn);
    raw->thread = std::thread([this, raw] { HandleConn(raw); });
  }
}

void Server::ReaperLoop() {
  while (!stop_.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kPollIntervalMs));
    std::lock_guard<std::mutex> lock(conns_mu_);
    int64_t now = NowMicros();
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn* conn = it->second.get();
      if (conn->done.load()) {
        // The connection thread has fully torn down; reclaim it.
        if (conn->thread.joinable()) conn->thread.join();
        CloseFd(conn->fd);
        conn->fd = -1;
        it = conns_.erase(it);
        continue;
      }
      if (options_.idle_timeout_us > 0 &&
          now - conn->last_active_us.load() > options_.idle_timeout_us) {
        // Wake the blocked ReadFrame; the connection thread then runs the
        // normal disconnect teardown (cancel runs, release the session).
        ::shutdown(conn->fd, SHUT_RDWR);
      }
      ++it;
    }
  }
}

Status Server::SendReply(Conn* conn, MsgType type,
                         const std::string& payload) {
  std::lock_guard<std::mutex> lock(conn->write_mu);
  return WriteFrame(conn->fd, type, payload);
}

Status Server::SendError(Conn* conn, const Status& error) {
  std::string payload;
  PutU8(&payload, static_cast<uint8_t>(error.code()));
  PutString(&payload, error.message());
  return SendReply(conn, MsgType::kError, payload);
}

Status Server::SendResult(Conn* conn, const sql::QueryResult& result) {
  std::string payload;
  PutU32(&payload, static_cast<uint32_t>(result.columns.size()));
  for (const std::string& c : result.columns) PutString(&payload, c);
  PutU32(&payload, static_cast<uint32_t>(result.rows.size()));
  for (const sql::Row& row : result.rows) {
    PutString(&payload, sql::EncodeRow(row));
  }
  return SendReply(conn, MsgType::kResult, payload);
}

Result<sql::QueryResult> Server::CanonicalSnapIds() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return meta_->Query("SELECT * FROM SnapIds");
}

bool Server::IsSnapshotReadScript(const std::string& sql) {
  auto statements = sql::ParseSql(sql);
  if (!statements.ok() || statements->empty()) return false;
  for (const sql::Statement& stmt : *statements) {
    const auto* select = std::get_if<sql::SelectStmt>(&stmt);
    if (select == nullptr) return false;
    if (select->as_of == 0 && select->as_of_param == nullptr) return false;
  }
  return true;
}

void Server::HandleConn(Conn* conn) {
  uint64_t session_id = 0;
  // --- handshake ------------------------------------------------------------
  {
    auto frame = ReadFrame(conn->fd);
    if (!frame.ok() || frame->type != MsgType::kHello) {
      conn->done.store(true);
      return;
    }
    WireReader reader(frame->payload);
    uint32_t version = 0;
    if (!reader.GetU32(&version) || version != kWireVersion) {
      (void)SendError(conn, Status::InvalidArgument(
                                "wire version mismatch: server speaks " +
                                std::to_string(kWireVersion)));
      conn->done.store(true);
      return;
    }
    if (active_sessions_.load() >= options_.max_sessions) {
      (void)SendError(conn, Status::Aborted(
                                "admission control: server at session "
                                "capacity"));
      conn->done.store(true);
      return;
    }
    session_id = next_session_id_.fetch_add(1);
    auto session =
        Session::Create(session_id, data_->store(), options_.engine);
    if (!session.ok()) {
      (void)SendError(conn, session.status());
      conn->done.store(true);
      return;
    }
    conn->session = std::move(*session);
    active_sessions_.fetch_add(1);
    sessions_opened_.fetch_add(1);
    std::string payload;
    PutU64(&payload, session_id);
    PutU32(&payload, kWireVersion);
    if (!SendReply(conn, MsgType::kHelloOk, payload).ok()) {
      conn->session.reset();
      active_sessions_.fetch_sub(1);
      conn->done.store(true);
      return;
    }
  }

  // --- request loop ---------------------------------------------------------
  while (!stop_.load()) {
    auto frame = ReadFrame(conn->fd);
    if (!frame.ok()) break;
    conn->last_active_us.store(NowMicros());
    conn->session->Touch();
    if (!HandleFrame(conn, *frame)) break;
  }

  // --- teardown -------------------------------------------------------------
  // Order matters: drain this session's runs out of the scheduler first
  // (queued ones complete Aborted, the running one aborts at its next
  // iteration boundary), THEN destroy the session — releasing prepared
  // statements, the engine and the attached handle — so no run body can
  // touch freed session state and the store is left fully reusable.
  scheduler_->CancelSession(session_id);
  conn->session.reset();
  active_sessions_.fetch_sub(1);
  conn->done.store(true);
}

Status Server::HandleRqlRun(Conn* conn, const Frame& frame) {
  WireReader reader(frame.payload);
  uint8_t mechanism = 0;
  uint32_t requested_workers = 0;
  std::string qs, qq, table, extra;
  reader.GetU8(&mechanism);
  reader.GetU32(&requested_workers);
  reader.GetString(&qs);
  reader.GetString(&qq);
  reader.GetString(&table);
  reader.GetString(&extra);
  RQL_RETURN_IF_ERROR(reader.status());
  if (mechanism > static_cast<uint8_t>(Mechanism::kCollateDataIntoIntervals)) {
    return Status::InvalidArgument("unknown RQL mechanism " +
                                   std::to_string(mechanism));
  }
  Mechanism mech = static_cast<Mechanism>(mechanism);
  // Snapshot the canonical SnapIds now (owner lock) and ship the copy
  // into the run body, which must not take the server write lock.
  RQL_ASSIGN_OR_RETURN(sql::QueryResult canonical, CanonicalSnapIds());
  Session* session = conn->session.get();

  // The body fills this; the completion callback reads it. No lock needed:
  // the scheduler sequences the body strictly before the callback, and for
  // runs reaped without dispatching (cancelled while queued, shutdown) the
  // zeroed defaults are exactly what kRunDone should carry.
  struct RunDoneStats {
    uint32_t iterations = 0;
    int64_t total_us = 0, shared_hits = 0, coalesced = 0, skipped = 0;
  };
  auto harvest = std::make_shared<RunDoneStats>();

  auto body = [session, harvest, mech, requested_workers,
               canonical = std::move(canonical), qs = std::move(qs),
               qq = std::move(qq), table = std::move(table),
               extra = std::move(extra)](RunScheduler::Ticket* t) -> Status {
    // Measured wall time, never the engine's TotalUs(): that adds the
    // CostModel's simulated I/O charges, which need not have elapsed.
    const int64_t start_us = NowMicros();
    Status st;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      st = session->ReplaceSnapIds(canonical);
      if (st.ok()) {
        RqlEngine* engine = session->engine();
        RqlOptions* opts = engine->mutable_options();
        opts->cancel = &t->cancel;
        opts->run_id = t->run_id;
        opts->parallel_workers =
            requested_workers > 1 ? t->granted_workers : 1;
        switch (mech) {
          case Mechanism::kCollateData:
            st = engine->CollateData(qs, qq, table);
            break;
          case Mechanism::kAggregateDataInVariable:
            st = engine->AggregateDataInVariable(qs, qq, table, extra);
            break;
          case Mechanism::kAggregateDataInTable:
            st = engine->AggregateDataInTable(qs, qq, table, extra);
            break;
          case Mechanism::kCollateDataIntoIntervals:
            st = engine->CollateDataIntoIntervals(qs, qq, table);
            break;
        }
        opts->cancel = nullptr;
        opts->run_id = 0;
        // The run dropped and rewrote its result table.
        if (sql::IdentEquals(table, "SnapIds")) session->ForgetSnapIdsMirror();
        const RqlRunStats& stats = engine->last_run_stats();
        harvest->iterations = static_cast<uint32_t>(stats.iterations.size());
        harvest->total_us = NowMicros() - start_us;
        harvest->shared_hits = stats.shared_page_hits;
        harvest->coalesced = stats.coalesced_decodes;
        harvest->skipped = stats.iterations_skipped;
      }
    }
    return st;
  };

  // Pushed by the scheduler on every completion — including runs it reaps
  // without ever dispatching (cancelled while queued, shutdown drain),
  // which would otherwise leave the client's WaitRun blocked forever.
  auto push_done = [this, conn, harvest](const RunScheduler::Ticket& t) {
    runs_completed_.fetch_add(1);
    std::string done;
    PutU64(&done, t.run_id);
    PutU8(&done, static_cast<uint8_t>(t.status.code()));
    PutString(&done, t.status.message());
    PutU32(&done, harvest->iterations);
    PutI64(&done, harvest->total_us);
    PutI64(&done, harvest->shared_hits);
    PutI64(&done, harvest->coalesced);
    PutI64(&done, harvest->skipped);
    // The peer may already be gone (disconnect races run completion);
    // a failed push is fine, teardown drains the run either way.
    (void)SendReply(conn, MsgType::kRunDone, done);
  };

  RQL_ASSIGN_OR_RETURN(
      auto ticket,
      scheduler_->Submit(session->id(), static_cast<int>(requested_workers),
                         std::move(body), std::move(push_done)));
  session->TrackRun(ticket->run_id, ticket);
  std::string payload;
  PutU64(&payload, ticket->run_id);
  return SendReply(conn, MsgType::kRunQueued, payload);
}

bool Server::HandleFrame(Conn* conn, const Frame& frame) {
  Session* session = conn->session.get();
  switch (frame.type) {
    case MsgType::kSql: {
      WireReader reader(frame.payload);
      std::string sql;
      if (!reader.GetString(&sql)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      Result<sql::QueryResult> result = Status::OK();
      if (IsSnapshotReadScript(sql)) {
        // Pure snapshot reads: concurrent, on the session's attached
        // handle, sharing the store caches with every other session.
        std::lock_guard<std::mutex> lock(session->mu);
        result = session->data()->Query(sql);
      } else {
        // Anything that may write (or reads current state) serializes on
        // the owning handle, whose catalog is always fresh.
        std::lock_guard<std::mutex> lock(write_mu_);
        result = data_->Query(sql);
      }
      if (result.ok()) {
        (void)SendResult(conn, *result);
      } else {
        (void)SendError(conn, result.status());
      }
      return true;
    }
    case MsgType::kMetaSql: {
      WireReader reader(frame.payload);
      std::string sql;
      if (!reader.GetString(&sql)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      auto canonical = CanonicalSnapIds();
      if (!canonical.ok()) {
        (void)SendError(conn, canonical.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      auto result = session->MetaSql(*canonical, sql);
      if (result.ok()) {
        (void)SendResult(conn, *result);
      } else {
        (void)SendError(conn, result.status());
      }
      return true;
    }
    case MsgType::kSnapshot: {
      WireReader reader(frame.payload);
      std::string label;
      if (!reader.GetString(&label)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(write_mu_);
      auto snap = owner_engine_->CommitWithSnapshot("", label);
      if (!snap.ok()) {
        (void)SendError(conn, snap.status());
        return true;
      }
      std::string payload;
      PutU32(&payload, static_cast<uint32_t>(*snap));
      (void)SendReply(conn, MsgType::kSnapshotDone, payload);
      return true;
    }
    case MsgType::kRqlRun: {
      Status st = HandleRqlRun(conn, frame);
      if (!st.ok()) (void)SendError(conn, st);
      return true;
    }
    case MsgType::kCancelRun: {
      // No session lock: this must reach a run that is holding it.
      WireReader reader(frame.payload);
      uint64_t run_id = 0;
      if (!reader.GetU64(&run_id)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      auto ticket = session->FindRun(run_id);
      if (ticket == nullptr) {
        (void)SendError(conn, Status::NotFound("unknown run " +
                                               std::to_string(run_id)));
        return true;
      }
      scheduler_->Cancel(ticket);
      (void)SendReply(conn, MsgType::kOk, "");
      return true;
    }
    case MsgType::kStats: {
      // No session lock either: stats must be pullable during a run.
      std::string payload;
      PutString(&payload, StatsJson());
      (void)SendReply(conn, MsgType::kStatsJson, payload);
      return true;
    }
    case MsgType::kListSchema: {
      WireReader reader(frame.payload);
      uint8_t kind = 0;
      if (!reader.GetU8(&kind)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      sql::QueryResult out;
      std::lock_guard<std::mutex> lock(write_mu_);
      if (kind == 1) {
        out.columns = {"index", "table"};
        for (const auto& [key, index] : data_->catalog()->data().indexes) {
          out.rows.push_back({sql::Value::Text(index.name),
                              sql::Value::Text(index.table)});
        }
      } else {
        out.columns = {"table", "schema"};
        for (const auto& [key, table] : data_->catalog()->data().tables) {
          out.rows.push_back({sql::Value::Text(table.name),
                              sql::Value::Text(table.schema.Serialize())});
        }
      }
      (void)SendResult(conn, out);
      return true;
    }
    case MsgType::kTruncate: {
      WireReader reader(frame.payload);
      uint32_t keep_from = 0;
      if (!reader.GetU32(&keep_from)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(write_mu_);
      Status st = owner_engine_->TruncateHistory(
          static_cast<retro::SnapshotId>(keep_from));
      if (st.ok()) {
        std::string payload;
        PutU32(&payload,
               static_cast<uint32_t>(data_->store()->earliest_snapshot()));
        (void)SendReply(conn, MsgType::kOk, payload);
      } else {
        (void)SendError(conn, st);
      }
      return true;
    }
    case MsgType::kListSnapshots: {
      auto canonical = CanonicalSnapIds();
      if (canonical.ok()) {
        (void)SendResult(conn, *canonical);
      } else {
        (void)SendError(conn, canonical.status());
      }
      return true;
    }
    case MsgType::kRunStats: {
      std::string text;
      {
        std::lock_guard<std::mutex> lock(session->mu);
        text = FormatRunStats(session->engine()->last_run_stats());
      }
      std::string payload;
      PutString(&payload, text);
      (void)SendReply(conn, MsgType::kStatsJson, payload);
      return true;
    }
    case MsgType::kPrepare: {
      WireReader reader(frame.payload);
      std::string sql;
      if (!reader.GetString(&sql)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      auto stmt_id = session->Prepare(sql);
      if (!stmt_id.ok()) {
        (void)SendError(conn, stmt_id.status());
        return true;
      }
      std::string payload;
      PutU32(&payload, *stmt_id);
      (void)SendReply(conn, MsgType::kPrepared, payload);
      return true;
    }
    case MsgType::kBindAsOf: {
      WireReader reader(frame.payload);
      uint32_t stmt_id = 0, snap = 0;
      if (!reader.GetU32(&stmt_id) || !reader.GetU32(&snap)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      Status st =
          session->BindAsOf(stmt_id, static_cast<retro::SnapshotId>(snap));
      if (st.ok()) {
        (void)SendReply(conn, MsgType::kOk, "");
      } else {
        (void)SendError(conn, st);
      }
      return true;
    }
    case MsgType::kBindValue: {
      WireReader reader(frame.payload);
      uint32_t stmt_id = 0, index = 0;
      std::string encoded;
      if (!reader.GetU32(&stmt_id) || !reader.GetU32(&index) ||
          !reader.GetString(&encoded)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      auto row = sql::DecodeRow(encoded);
      if (!row.ok() || row->size() != 1) {
        (void)SendError(conn, Status::InvalidArgument(
                                  "kBindValue wants a one-value row"));
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      Status st = session->BindValue(stmt_id, static_cast<int>(index),
                                     (*row)[0]);
      if (st.ok()) {
        (void)SendReply(conn, MsgType::kOk, "");
      } else {
        (void)SendError(conn, st);
      }
      return true;
    }
    case MsgType::kExecPrepared: {
      WireReader reader(frame.payload);
      uint32_t stmt_id = 0;
      if (!reader.GetU32(&stmt_id)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      auto result = session->ExecutePrepared(stmt_id);
      if (result.ok()) {
        (void)SendResult(conn, *result);
      } else {
        (void)SendError(conn, result.status());
      }
      return true;
    }
    case MsgType::kClosePrepared: {
      WireReader reader(frame.payload);
      uint32_t stmt_id = 0;
      if (!reader.GetU32(&stmt_id)) {
        (void)SendError(conn, reader.status());
        return true;
      }
      std::lock_guard<std::mutex> lock(session->mu);
      Status st = session->ClosePrepared(stmt_id);
      if (st.ok()) {
        (void)SendReply(conn, MsgType::kOk, "");
      } else {
        (void)SendError(conn, st);
      }
      return true;
    }
    case MsgType::kGoodbye: {
      (void)SendReply(conn, MsgType::kOk, "");
      return false;
    }
    default:
      (void)SendError(conn, Status::InvalidArgument(
                                "unexpected frame type " +
                                std::to_string(static_cast<int>(frame.type))));
      return true;
  }
}

std::string Server::StatsJson() {
  sql::SharedScanCache::Stats cache = scan_cache_.GetStats();
  std::ostringstream out;
  out << "{\n";
  out << "  \"server\": {"
      << "\"active_sessions\": " << active_sessions_.load()
      << ", \"sessions_opened\": " << sessions_opened_.load()
      << ", \"max_sessions\": " << options_.max_sessions
      << ", \"runs_completed\": " << runs_completed_.load() << "},\n";
  const RqlOptions& engine = options_.engine;
  out << "  \"engine\": {"
      << "\"profile\": \"" << RqlProfileName(engine.profile) << "\""
      << ", \"cache_policy\": \"" << RqlCachePolicyName(engine.cache_policy)
      << "\"},\n";
  out << "  \"scheduler\": {"
      << "\"queued\": " << scheduler_->queued()
      << ", \"active\": " << scheduler_->active()
      << ", \"queue_limit\": " << scheduler_->queue_limit()
      << ", \"worker_budget\": " << scheduler_->worker_budget()
      << ", \"admission_rejects\": " << scheduler_->admission_rejects()
      << ", \"completed\": " << scheduler_->completed()
      << ", \"cancelled\": " << scheduler_->cancelled() << "},\n";
  out << "  \"scan_cache\": {"
      << "\"shared_hits\": " << cache.shared_hits
      << ", \"misses\": " << cache.misses
      << ", \"coalesced_decodes\": " << cache.coalesced_decodes
      << ", \"inserts\": " << cache.inserts
      << ", \"entries\": " << cache.entries
      << ", \"bytes\": " << cache.bytes << "},\n";
  out << "  \"memo\": {"
      << "\"entries\": " << memo_->entry_count()
      << ", \"bytes\": " << memo_->bytes()
      << ", \"max_bytes\": " << memo_->options().max_bytes
      << ", \"evictions\": " << memo_->evictions()
      << ", \"hits\": " << metrics_->GetCounter("rql.memo_hits")->value()
      << ", \"misses\": "
      << metrics_->GetCounter("rql.memo_misses")->value() << "},\n";
  out << "  \"store\": {"
      << "\"earliest_snapshot\": "
      << static_cast<int64_t>(data_->store()->earliest_snapshot())
      << ", \"latest_snapshot\": "
      << static_cast<int64_t>(data_->store()->latest_snapshot()) << "}\n";
  out << "}\n";
  return out.str();
}

}  // namespace rql::server
