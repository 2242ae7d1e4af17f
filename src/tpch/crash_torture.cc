#include "tpch/crash_torture.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rql/rql.h"
#include "sql/database.h"
#include "storage/env.h"
#include "storage/fault_env.h"
#include "tpch/tpch.h"

namespace rql::tpch {
namespace {

std::string Serialize(const sql::QueryResult& r) {
  std::string out;
  for (const sql::Row& row : r.rows) {
    for (const sql::Value& v : row) {
      out += v.ToString();
      out += '|';
    }
    out += '\n';
  }
  return out;
}

constexpr char kOrdersSigSql[] =
    "o_orderkey, o_custkey, o_orderstatus, o_totalprice, o_orderdate "
    "FROM orders ORDER BY o_orderkey";
constexpr char kLineitemSigSql[] =
    "l_orderkey, l_linenumber, l_partkey, l_quantity, l_extendedprice "
    "FROM lineitem ORDER BY l_orderkey, l_linenumber";

/// Byte signature of the database state: every orders and lineitem row in
/// key order. `snap` = kNoSnapshot reads the current state, otherwise the
/// query runs AS OF that snapshot.
Result<std::string> StateSignature(sql::Database* db, retro::SnapshotId snap) {
  std::string as_of = snap == retro::kNoSnapshot
                          ? std::string()
                          : "AS OF " + std::to_string(snap) + " ";
  RQL_ASSIGN_OR_RETURN(sql::QueryResult orders,
                       db->Query("SELECT " + as_of + kOrdersSigSql));
  RQL_ASSIGN_OR_RETURN(sql::QueryResult items,
                       db->Query("SELECT " + as_of + kLineitemSigSql));
  return Serialize(orders) + "--\n" + Serialize(items);
}

/// One simulated process lifetime: data + metadata databases and the RQL
/// engine over them, all on the same Env.
struct Harness {
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<RqlEngine> engine;

  static Result<Harness> Open(storage::Env* env) {
    Harness h;
    RQL_ASSIGN_OR_RETURN(h.data, sql::Database::Open(env, "tort"));
    RQL_ASSIGN_OR_RETURN(h.meta, sql::Database::Open(env, "tortmeta"));
    h.engine = std::make_unique<RqlEngine>(h.data.get(), h.meta.get());
    return h;
  }
};

std::string Timestamp(int round) {
  std::string day = std::to_string(round);
  if (day.size() < 2) day = "0" + day;
  return "1992-01-" + day + " 00:00:00";
}

/// Schema + bulk load + update rounds; round r ends in COMMIT WITH
/// SNAPSHOT (declaring snapshot r) followed by the SnapIds insert. `acked`
/// counts rounds whose CommitWithSnapshot fully returned OK. When `sigs`
/// is non-null (fault-free runs) the current-state signature is captured
/// after schema creation and after each round; signature reads issue no
/// syncs, so capturing them does not shift kill-point numbering.
Status RunWorkload(storage::Env* env, const TortureConfig& cfg, int* acked,
                   std::vector<std::string>* sigs) {
  *acked = 0;
  RQL_ASSIGN_OR_RETURN(Harness h, Harness::Open(env));
  RQL_RETURN_IF_ERROR(h.engine->EnsureSnapIds());
  TpchConfig tc;
  tc.scale_factor = cfg.scale_factor;
  tc.seed = cfg.seed;
  TpchGenerator gen(h.data.get(), tc);
  RQL_RETURN_IF_ERROR(gen.CreateSchema());
  if (sigs != nullptr) {
    RQL_ASSIGN_OR_RETURN(std::string sig,
                         StateSignature(h.data.get(), retro::kNoSnapshot));
    sigs->push_back(std::move(sig));  // state 0: empty schema
  }
  for (int r = 1; r <= cfg.snapshots; ++r) {
    RQL_RETURN_IF_ERROR(h.data->Exec("BEGIN"));
    if (r == 1) {
      // The bulk load joins the declaring transaction so the whole round
      // is one commit (Populate defers to an enclosing transaction).
      RQL_RETURN_IF_ERROR(gen.Populate());
    } else {
      RQL_RETURN_IF_ERROR(gen.RefreshDelete(cfg.orders_per_snapshot));
      RQL_RETURN_IF_ERROR(gen.RefreshInsert(cfg.orders_per_snapshot));
    }
    RQL_ASSIGN_OR_RETURN(retro::SnapshotId snap,
                         h.engine->CommitWithSnapshot(Timestamp(r)));
    if (snap != static_cast<retro::SnapshotId>(r)) {
      return Status::Internal("expected snapshot " + std::to_string(r) +
                              ", declared " + std::to_string(snap));
    }
    *acked = r;
    if (sigs != nullptr) {
      RQL_ASSIGN_OR_RETURN(std::string sig,
                           StateSignature(h.data.get(), retro::kNoSnapshot));
      sigs->push_back(std::move(sig));
    }
  }
  return Status::OK();
}

/// Runs both verification mechanisms over snapshots 1..j and serializes
/// their result tables. The engine runs with whatever options are
/// installed, so the same checks serve the memo-less oracle and the
/// memoized recovery passes.
Status RunRqlChecks(Harness* h, int j, std::string* collate,
                    std::string* aggmax) {
  std::string qs = "SELECT snap_id FROM SnapIds WHERE snap_id <= " +
                   std::to_string(j) + " ORDER BY snap_id";
  RQL_RETURN_IF_ERROR(h->engine->CollateData(
      qs,
      "SELECT o_orderkey, o_totalprice, current_snapshot() AS sid "
      "FROM orders",
      "TortCollate"));
  RQL_ASSIGN_OR_RETURN(
      sql::QueryResult c,
      h->meta->Query("SELECT sid, o_orderkey, o_totalprice FROM TortCollate "
                     "ORDER BY sid, o_orderkey"));
  *collate = Serialize(c);
  // The Qq must yield unique group keys per iteration: the aggregation
  // mechanism updates only the first index match for a duplicated key, so
  // duplicates would make the result depend on physical row order.
  RQL_RETURN_IF_ERROR(h->engine->AggregateDataInTable(
      qs,
      "SELECT o_custkey, MAX(o_totalprice) AS mx FROM orders "
      "GROUP BY o_custkey",
      "TortAgg", std::string("(mx,max)")));
  RQL_ASSIGN_OR_RETURN(sql::QueryResult a,
                       h->meta->Query("SELECT o_custkey, mx FROM TortAgg "
                                      "ORDER BY o_custkey"));
  *aggmax = Serialize(a);
  return Status::OK();
}

/// Everything the kill runs are compared against, computed fault-free.
struct Oracle {
  std::vector<std::string> state_sig;  // [r], r = 0..snapshots
  std::vector<std::string> collate_sig;  // [j-1], j = 1..snapshots
  std::vector<std::string> aggmax_sig;
  uint64_t sync_points = 0;
};

Status VerifyRecovered(storage::Env* env, const TortureConfig& cfg,
                       const Oracle& oracle, int acked, int k) {
  auto fail = [k](const std::string& what) {
    return Status::Internal("kill point " + std::to_string(k) + ": " + what);
  };
  auto opened = Harness::Open(env);
  if (!opened.ok()) {
    return fail("reopen after recovery failed: " +
                opened.status().ToString());
  }
  Harness h = std::move(*opened);

  // Recovery invariant 1: the mark of snapshot s is synced only after s's
  // declaring commit is WAL-durable and after CommitWithSnapshot acked
  // s - 1 at the latest, so acked <= latest <= acked + 1.
  int latest = static_cast<int>(h.data->store()->latest_snapshot());
  if (latest < acked || latest > acked + 1 || latest > cfg.snapshots) {
    return fail("latest_snapshot " + std::to_string(latest) +
                " outside [acked=" + std::to_string(acked) + ", acked+1]");
  }

  // Recovery invariant 2 (committed prefix): the current state is the
  // fault-free state after round `latest`, or after round `latest + 1`
  // when the declaring commit became durable but its snapshot mark was
  // lost with the crash.
  Result<std::string> cur = StateSignature(h.data.get(), retro::kNoSnapshot);
  if (!cur.ok()) {
    // The crash hit schema creation; no round can have committed.
    if (latest != 0 || acked != 0) {
      return fail("state unreadable after recovery: " +
                  cur.status().ToString());
    }
  } else {
    bool matches_latest = *cur == oracle.state_sig[latest];
    bool matches_next = latest + 1 <= cfg.snapshots &&
                        *cur == oracle.state_sig[latest + 1];
    if (!matches_latest && !matches_next) {
      return fail("recovered current state matches neither round " +
                  std::to_string(latest) + " nor round " +
                  std::to_string(latest + 1));
    }
  }

  // Recovery invariant 3: every surviving snapshot answers byte-identically
  // to the fault-free run (the archive-ahead ordering guarantees its
  // pre-states and mappings were durable before its mark).
  for (int s = 1; s <= latest; ++s) {
    RQL_ASSIGN_OR_RETURN(
        std::string sig,
        StateSignature(h.data.get(), static_cast<retro::SnapshotId>(s)));
    if (sig != oracle.state_sig[s]) {
      return fail("AS OF " + std::to_string(s) +
                  " differs from the fault-free state");
    }
  }

  // Recovery invariant 4: SnapIds holds exactly a prefix 1..m of the
  // surviving snapshots, with every acked declaration present.
  int m = 0;
  auto rows = h.meta->Query("SELECT snap_id FROM SnapIds ORDER BY snap_id");
  if (!rows.ok()) {
    if (acked != 0) {
      return fail("SnapIds unreadable with acked=" + std::to_string(acked) +
                  ": " + rows.status().ToString());
    }
  } else {
    for (const sql::Row& row : rows->rows) {
      if (row[0].AsInt() != m + 1) {
        return fail("SnapIds is not a dense prefix at row " +
                    std::to_string(m));
      }
      ++m;
    }
    if (m < acked || m > latest) {
      return fail("SnapIds rows " + std::to_string(m) + " outside [acked=" +
                  std::to_string(acked) +
                  ", latest=" + std::to_string(latest) + "]");
    }
  }

  // Recovery invariant 5: RQL over the surviving snapshot set matches the
  // fault-free oracle byte-for-byte.
  if (m >= 1) {
    std::string collate, aggmax;
    Status s = RunRqlChecks(&h, m, &collate, &aggmax);
    if (!s.ok()) return fail("RQL over recovered state: " + s.ToString());
    if (collate != oracle.collate_sig[static_cast<size_t>(m) - 1]) {
      return fail("CollateData over snapshots 1.." + std::to_string(m) +
                  " differs from the fault-free oracle");
    }
    if (aggmax != oracle.aggmax_sig[static_cast<size_t>(m) - 1]) {
      return fail("AggregateDataInTable over snapshots 1.." +
                  std::to_string(m) + " differs from the fault-free oracle");
    }
  }

  // Recovery invariant 6: a memo never changes RQL answers over the
  // recovered store. The first memoized pass, on a fresh memo, records
  // every iteration; the second runs fully warm. Both must match the
  // memo-less oracle byte-for-byte.
  if (m >= 1) {
    retro::MemoTable memo;
    h.engine->mutable_options()->memo = &memo;
    for (int pass = 1; pass <= 2; ++pass) {
      std::string collate, aggmax;
      Status s = RunRqlChecks(&h, m, &collate, &aggmax);
      if (!s.ok()) {
        return fail("memoized RQL pass " + std::to_string(pass) +
                    " over recovered state: " + s.ToString());
      }
      if (collate != oracle.collate_sig[static_cast<size_t>(m) - 1] ||
          aggmax != oracle.aggmax_sig[static_cast<size_t>(m) - 1]) {
        return fail("memoized RQL pass " + std::to_string(pass) +
                    " served rows differing from the memo-less oracle");
      }
    }
    // The second pass ran against the memo the first pass filled: every
    // iteration of its last mechanism must have replayed.
    int64_t hits = 0;
    for (const RqlIterationStats& it :
         h.engine->last_run_stats().iterations) {
      hits += it.memo_hits;
    }
    if (hits != m) {
      return fail("warm memoized pass replayed " + std::to_string(hits) +
                  " of " + std::to_string(m) + " iterations");
    }
  }
  return Status::OK();
}

}  // namespace

Status RunCrashTorture(const TortureConfig& cfg, TortureReport* report) {
  *report = TortureReport{};

  // Transparency reference: the workload on the raw in-memory env.
  std::vector<std::string> plain_sigs;
  int plain_acked = 0;
  {
    storage::InMemoryEnv plain;
    RQL_RETURN_IF_ERROR(RunWorkload(&plain, cfg, &plain_acked, &plain_sigs));
  }

  // Fault-free oracle through a FaultInjectionEnv with nothing armed; its
  // sync counter enumerates the kill-point space.
  Oracle oracle;
  storage::InMemoryEnv oracle_base;
  storage::FaultInjectionEnv oracle_env(&oracle_base, cfg.seed);
  int oracle_acked = 0;
  RQL_RETURN_IF_ERROR(
      RunWorkload(&oracle_env, cfg, &oracle_acked, &oracle.state_sig));
  if (oracle.state_sig != plain_sigs) {
    return Status::Internal(
        "FaultInjectionEnv with no faults armed changed observable "
        "behaviour");
  }
  oracle.sync_points = oracle_env.stats().syncs;

  // Per-prefix RQL expectations, computed on the oracle database. The
  // reopen also exercises clean-shutdown recovery.
  {
    RQL_ASSIGN_OR_RETURN(Harness oh, Harness::Open(&oracle_env));
    for (int j = 1; j <= cfg.snapshots; ++j) {
      std::string collate, aggmax;
      RQL_RETURN_IF_ERROR(RunRqlChecks(&oh, j, &collate, &aggmax));
      oracle.collate_sig.push_back(std::move(collate));
      oracle.aggmax_sig.push_back(std::move(aggmax));
    }
  }

  report->sync_points = static_cast<int>(oracle.sync_points);
  int limit = report->sync_points;
  if (cfg.max_kill_points > 0 && cfg.max_kill_points < limit) {
    limit = cfg.max_kill_points;
  }

  for (int k = 1; k <= limit; ++k) {
    storage::InMemoryEnv base;
    storage::FaultInjectionEnv env(&base, cfg.seed);
    storage::FaultSpec spec;
    spec.op = storage::FaultOp::kSync;
    spec.kind = storage::FaultKind::kCrash;
    spec.after = static_cast<uint64_t>(k) - 1;
    env.Arm(spec);
    int acked = 0;
    Status ws = RunWorkload(&env, cfg, &acked, nullptr);
    if (ws.ok()) {
      return Status::Internal("kill point " + std::to_string(k) +
                              " was never reached (workload completed)");
    }
    if (!env.crashed()) {
      return Status::Internal("kill point " + std::to_string(k) +
                              ": workload failed before the crash fired: " +
                              ws.ToString());
    }
    RQL_RETURN_IF_ERROR(env.RecoverToSyncedState());
    RQL_RETURN_IF_ERROR(VerifyRecovered(&env, cfg, oracle, acked, k));
    ++report->completed_runs;
    if (cfg.verbose) {
      report->log.push_back("kill point " + std::to_string(k) + "/" +
                            std::to_string(limit) + ": acked " +
                            std::to_string(acked) + " round(s), recovered "
                            "and verified");
    }
  }
  report->kill_points = limit;
  return Status::OK();
}

}  // namespace rql::tpch
