#ifndef RQL_SERVER_WIRE_H_
#define RQL_SERVER_WIRE_H_

// The RQL server wire protocol: length-prefixed frames over a stream
// socket.
//
//   frame := u32 payload_length (little-endian) | u8 type | payload
//
// Payloads are flat sequences of fixed-width little-endian integers and
// u32-length-prefixed byte strings, written with the Put* helpers and
// read back with WireReader. Result rows travel as sql::EncodeRow byte
// strings, so a row decoded on the client is byte-identical to the row
// the server materialized — the property the concurrent-client
// integration tests assert against an in-process oracle.
//
// Request/response pairing is strictly in order per connection, with one
// exception: kRunDone frames are pushed asynchronously when a scheduled
// RQL run completes, and may interleave ahead of the reply to a request
// sent while the run was executing. Clients therefore treat kRunDone as
// out-of-band (see Client::ReadReply).

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace rql::server {

/// Protocol revision; bumped on any incompatible frame change. Exchanged
/// in kHello/kHelloOk, and mismatches are rejected at handshake.
constexpr uint32_t kWireVersion = 1;

/// Upper bound on a frame payload; anything larger is treated as a
/// corrupt stream rather than an allocation request.
constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class MsgType : uint8_t {
  // --- client -> server ----------------------------------------------------
  /// u32 wire_version. Reply: kHelloOk or kError (version mismatch, server
  /// at session capacity).
  kHello = 1,
  /// str sql — a ';'-separated script for the data database. Scripts whose
  /// statements are all `SELECT AS OF` run concurrently on the session's
  /// attached handle; anything else serializes on the server write lock
  /// and executes on the owning handle. Reply: kResult or kError.
  kSql = 2,
  /// str sql — SQL on the session's private metadata database (SnapIds
  /// mirror, RQL result tables; the RQL UDFs are registered, so the
  /// paper's `SELECT CollateData(...) FROM SnapIds` form works over the
  /// wire). Reply: kResult or kError.
  kMetaSql = 3,
  /// str label. Declares a snapshot through the owning engine (COMMIT WITH
  /// SNAPSHOT + canonical SnapIds row). Reply: kSnapshotDone or kError.
  kSnapshot = 4,
  /// u8 mechanism (Mechanism enum), u32 requested_workers, str qs, str qq,
  /// str table, str extra (aggregate function for
  /// AggregateDataInVariable, the "(col,func):..." pair list for
  /// AggregateDataInTable, else empty). Submits a run to the scheduler.
  /// Reply: kRunQueued (admission granted) or kError (queue full, bad
  /// mechanism); a kRunDone frame follows when the run finishes.
  kRqlRun = 5,
  /// u64 run_id. Cooperative cancel; handled without the session lock so
  /// it reaches a running or queued run immediately. Reply: kOk (flag
  /// raised) or kError (unknown run). The run still completes with its
  /// own kRunDone (status Aborted when the cancel won the race).
  kCancelRun = 6,
  /// empty. Reply: kStatsJson with the server-level stats document
  /// (sessions, scheduler, shared cache, store) — the schema
  /// tools/check_server_json.py validates.
  kStats = 7,
  /// u8 kind (0 = tables, 1 = indexes) from the owner catalog (always
  /// fresh, unlike the session's attach-time copy). Reply: kResult.
  kListSchema = 8,
  /// u32 keep_from. Retention through the owning engine
  /// (RqlEngine::TruncateHistory). Reply: kOk or kError.
  kTruncate = 9,
  /// empty. Canonical SnapIds table. Reply: kResult.
  kListSnapshots = 10,
  /// empty. The session engine's last-run cost breakdown, rendered
  /// server-side (repl FormatRunStats). Reply: kStatsJson (text payload).
  kRunStats = 11,
  /// str sql. Prepares a statement on the session's attached data handle;
  /// per-session plan state (PlanCache, AS OF binding) lives with it until
  /// kClosePrepared or session teardown. Reply: kPrepared or kError.
  kPrepare = 12,
  /// u32 stmt_id, u32 snapshot. PreparedStatement::BindAsOf. Reply: kOk.
  kBindAsOf = 13,
  /// u32 stmt_id, u32 index, str value (a one-value sql::EncodeRow).
  /// Reply: kOk.
  kBindValue = 14,
  /// u32 stmt_id. Executes with current bindings. Reply: kResult.
  kExecPrepared = 15,
  /// u32 stmt_id. Reply: kOk.
  kClosePrepared = 16,
  /// empty. Clean goodbye; server replies kOk and closes.
  kGoodbye = 17,

  // --- server -> client ----------------------------------------------------
  kOk = 64,
  /// u8 status_code (rql::StatusCode), str message.
  kError = 65,
  /// u64 session_id, u32 wire_version.
  kHelloOk = 66,
  /// u32 ncols, ncols x str column, u32 nrows, nrows x str EncodeRow(row).
  kResult = 67,
  /// u32 snapshot_id.
  kSnapshotDone = 68,
  /// u64 run_id. Workers are granted at dispatch (scheduler budget), not
  /// at admission, so the grant is reported by the trailing kRunDone's
  /// stats pull, not here.
  kRunQueued = 69,
  /// u64 run_id, u8 status_code, str message, u32 iterations,
  /// i64 total_us, i64 shared_page_hits, i64 coalesced_decodes,
  /// i64 iterations_skipped. Pushed out of band at run completion.
  /// total_us is the run body's measured steady-clock wall time on the
  /// server (SnapIds mirror plus the mechanism run; queue wait excluded),
  /// so it cannot exceed the latency the client observes. 0 for a run
  /// that never dispatched.
  kRunDone = 70,
  /// str payload (JSON for kStats, rendered text for kRunStats).
  kStatsJson = 71,
  /// u32 stmt_id.
  kPrepared = 72,
};

/// RQL mechanism selector carried by kRqlRun.
enum class Mechanism : uint8_t {
  kCollateData = 0,
  kAggregateDataInVariable = 1,
  kAggregateDataInTable = 2,
  kCollateDataIntoIntervals = 3,
};

struct Frame {
  MsgType type = MsgType::kOk;
  std::string payload;
};

// --- payload building -------------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
void PutI64(std::string* out, int64_t v);
void PutString(std::string* out, std::string_view s);

/// Sequential payload decoder. Get* return false (and latch an error) on
/// underflow; check `status()` once after the last field. A trailing
/// unread remainder is tolerated (forward compatibility).
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetString(std::string* s);

  bool ok() const { return ok_; }
  Status status() const {
    return ok_ ? Status::OK() : Status::Corruption("truncated wire payload");
  }

 private:
  bool Take(size_t n, const char** p);
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- frame I/O --------------------------------------------------------------

/// Writes one frame, looping over partial sends; EPIPE/ECONNRESET surface
/// as IoError (SIGPIPE is suppressed per-send, not process-wide).
Status WriteFrame(int fd, MsgType type, std::string_view payload);

/// Reads one frame. A clean EOF on the frame boundary returns
/// IoError("connection closed"); a payload above kMaxFramePayload returns
/// Corruption.
Result<Frame> ReadFrame(int fd);

}  // namespace rql::server

#endif  // RQL_SERVER_WIRE_H_
