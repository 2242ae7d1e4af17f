// rql_report: "EXPLAIN ANALYZE for RQL".
//
// Builds a small self-contained history (InMemoryEnv, no TPC-H data
// needed), runs all four retrospective mechanisms with tracing and
// cross-run memoization on — twice each, a cold pass that publishes the
// memo and a warm pass that replays it — and renders what the engine did
// per iteration: the Figure 8 phase breakdown (archive I/O, SPT build,
// Qq evaluation, index creation, UDF time) next to the page and row
// counts, plus the metrics-registry delta for each run, the memo-table
// totals, and the component gauges at exit.
//
// Every number is read through the observability layer — the per-run
// RqlTrace ring and the retro::MetricsRegistry delta — never by reaching
// into RqlRunStats, so this tool doubles as an end-to-end check of that
// layer (CI runs it with --json and validates the output against
// tools/check_report_json.py).
//
// Usage:
//   rql_report [--snapshots=N] [--workers=N] [--trace-capacity=N]
//              [--json=PATH] [--jsonl=PATH]

#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "rql/memo_table.h"
#include "rql/rql.h"
#include "sql/shared_scan_cache.h"

namespace rql::bench {
namespace {

struct ReportOptions {
  int snapshots = 8;
  int workers = 1;
  int64_t trace_capacity = 4096;
  std::string json_path;   // empty = no JSON artifact
  std::string jsonl_path;  // empty = no JSONL event stream
};

// One rendered row of the per-iteration table, assembled from the trace
// events that share a snapshot (iteration_begin/spt_build/archive_fetch/
// scan_cache/iteration_end, or a lone iteration_skip).
struct IterRow {
  int64_t index = -1;
  retro::SnapshotId snapshot = retro::kNoSnapshot;
  uint16_t worker = 0;
  bool skipped = false;
  bool memo_hit = false;
  int64_t validated_pages = 0;  // memo-hit rows: read-set pages validated
  int64_t io_us = 0, spt_us = 0, query_us = 0, index_us = 0, udf_us = 0;
  int64_t qq_rows = 0;
  int64_t maplog_pages = 0, spt_delta_entries = 0;
  int64_t pagelog_pages = 0, cache_hits = 0, db_pages = 0;
  int64_t scan_hits = 0, scan_misses = 0;
  int64_t delta_pages = 0;  // skip rows: changed pages in the read set

  int64_t TotalUs() const {
    return io_us + spt_us + query_us + index_us + udf_us;
  }
};

// Folds the flat event stream back into per-iteration rows. Events are
// keyed by (snapshot, worker) while in flight so interleaved parallel
// workers do not corrupt each other's rows.
std::vector<IterRow> RowsFromTrace(const RqlTrace& trace) {
  std::vector<IterRow> rows;
  std::map<std::pair<retro::SnapshotId, uint16_t>, IterRow> pending;
  for (const RqlTraceEvent& ev : trace.Events()) {
    auto key = std::make_pair(ev.snapshot, ev.worker);
    switch (ev.type) {
      case RqlTraceEventType::kIterationBegin: {
        IterRow row;
        row.index = ev.args[0];
        row.snapshot = ev.snapshot;
        row.worker = ev.worker;
        pending[key] = row;
        break;
      }
      case RqlTraceEventType::kSptBuild: {
        IterRow& row = pending[key];
        row.maplog_pages = ev.args[0];
        row.spt_delta_entries = ev.args[1];
        break;
      }
      case RqlTraceEventType::kArchiveFetch: {
        IterRow& row = pending[key];
        row.pagelog_pages = ev.args[0];
        row.cache_hits = ev.args[2];
        row.db_pages = ev.args[3];
        break;
      }
      case RqlTraceEventType::kScanCache: {
        IterRow& row = pending[key];
        row.scan_hits = ev.args[0];
        row.scan_misses = ev.args[1];
        break;
      }
      case RqlTraceEventType::kIterationEnd: {
        IterRow row = pending[key];
        pending.erase(key);
        row.snapshot = ev.snapshot;
        row.worker = ev.worker;
        row.io_us = ev.args[0];
        row.spt_us = ev.args[1];
        row.query_us = ev.args[2];
        row.index_us = ev.args[3];
        row.udf_us = ev.args[4];
        row.qq_rows = ev.args[5];
        rows.push_back(row);
        break;
      }
      case RqlTraceEventType::kMemoHit:
      case RqlTraceEventType::kIterationSkip: {
        // A replayed iteration executes nothing, so it has no begin/end
        // pair, sequential or parallel: the record loop's event stands alone.
        IterRow* row = &rows.emplace_back();
        row->index = ev.args[0];
        row->snapshot = ev.snapshot;
        row->worker = ev.worker;
        if (ev.type == RqlTraceEventType::kMemoHit) {
          row->memo_hit = true;
          row->validated_pages = ev.args[1];
        } else {
          row->skipped = true;
          row->delta_pages = ev.args[1];
        }
        row->qq_rows = ev.args[2];
        row->udf_us += ev.args[3];
        break;
      }
      default:
        break;  // run begin/end, worker_stall: rendered separately
    }
  }
  return rows;
}

void PrintIterationTable(const std::vector<IterRow>& rows) {
  std::printf("  %-4s %-6s %8s %8s %9s %9s %8s %9s %8s %7s %6s  %s\n", "it",
              "snap", "io_ms", "spt_ms", "query_ms", "index_ms", "udf_ms",
              "total_ms", "qq_rows", "plog_pg", "db_pg", "note");
  for (size_t i = 0; i < rows.size(); ++i) {
    const IterRow& r = rows[i];
    std::string note;
    if (r.memo_hit) {
      note = "memo hit (validated_pages=" + std::to_string(r.validated_pages) +
             ", replayed_rows=" + std::to_string(r.qq_rows) + ")";
    } else if (r.skipped) {
      note = "skipped (delta_pages=" + std::to_string(r.delta_pages) +
             ", replayed_rows=" + std::to_string(r.qq_rows) + ")";
    } else if (r.scan_hits + r.scan_misses > 0) {
      note = "scan_cache " + std::to_string(r.scan_hits) + "/" +
             std::to_string(r.scan_hits + r.scan_misses) + " hit";
    }
    std::printf("  %-4lld %-6u %8.2f %8.2f %9.2f %9.2f %8.2f %9.2f %8lld "
                "%7lld %6lld  %s\n",
                static_cast<long long>(r.index >= 0
                                           ? r.index
                                           : static_cast<int64_t>(i)),
                r.snapshot, r.io_us / 1000.0, r.spt_us / 1000.0,
                r.query_us / 1000.0, r.index_us / 1000.0, r.udf_us / 1000.0,
                r.TotalUs() / 1000.0, static_cast<long long>(r.qq_rows),
                static_cast<long long>(r.pagelog_pages),
                static_cast<long long>(r.db_pages), note.c_str());
  }
}

void PrintMetricsDelta(const retro::MetricsRegistry::Snapshot& delta) {
  std::printf("  metrics delta:\n");
  for (const auto& [name, v] : delta.counters) {
    if (v != 0) {
      std::printf("    %-32s %12lld\n", name.c_str(),
                  static_cast<long long>(v));
    }
  }
  for (const auto& [name, h] : delta.histograms) {
    if (h.count == 0) continue;
    std::printf("    %-32s count=%lld sum_us=%lld mean_us=%.0f\n",
                name.c_str(), static_cast<long long>(h.count),
                static_cast<long long>(h.sum_us),
                static_cast<double>(h.sum_us) / static_cast<double>(h.count));
  }
}

struct MechanismRun {
  std::string name;
  std::string table;
  const char* pass = "cold";  // "cold" publishes the memo, "warm" replays
  RqlTrace trace;  // copy of the engine's last-run trace
  retro::MetricsRegistry::Snapshot delta;
  std::vector<IterRow> rows;
};

// The LoggedIn-style synthetic history: `orders` changes on most
// snapshots; every third snapshot only touches `audit`, leaving `orders`
// byte-identical so the memo's delta fast path has something to replay.
Status BuildHistory(RqlEngine* engine, sql::Database* data, int snapshots) {
  RQL_RETURN_IF_ERROR(engine->EnsureSnapIds());
  RQL_RETURN_IF_ERROR(data->Exec(
      "CREATE TABLE orders (o_id INTEGER, o_status TEXT, o_price REAL)"));
  RQL_RETURN_IF_ERROR(
      data->Exec("CREATE TABLE audit (a_id INTEGER, a_note TEXT)"));
  int next_id = 1;
  for (int i = 1; i <= snapshots; ++i) {
    if (i > 1 && i % 3 == 0) {
      // Orders untouched: this iteration can take the fast path.
      RQL_RETURN_IF_ERROR(data->Exec(
          "BEGIN; INSERT INTO audit VALUES (" + std::to_string(i) +
          ", 'no-op day')"));
    } else {
      std::string sql = "BEGIN";
      for (int r = 0; r < 4; ++r) {
        int id = next_id++;
        sql += "; INSERT INTO orders VALUES (" + std::to_string(id) + ", '" +
               (id % 2 == 0 ? "O" : "F") + "', " +
               std::to_string(100 + id) + ".5)";
      }
      // Flip one status so CollateDataIntoIntervals sees closing runs.
      sql += "; UPDATE orders SET o_status = 'F' WHERE o_id = " +
             std::to_string((i * 2) % next_id);
      RQL_RETURN_IF_ERROR(data->Exec(sql));
    }
    char ts[32];
    std::snprintf(ts, sizeof(ts), "2008-11-%02d 23:59:59", i);
    RQL_ASSIGN_OR_RETURN(retro::SnapshotId sid,
                         engine->CommitWithSnapshot(ts));
    (void)sid;
  }
  return Status::OK();
}

int Run(const ReportOptions& opt) {
  storage::InMemoryEnv env;
  auto data = sql::Database::Open(&env, "data");
  auto meta = sql::Database::Open(&env, "meta");
  if (!data.ok()) Fail(data.status(), "open data");
  if (!meta.ok()) Fail(meta.status(), "open meta");
  RqlEngine engine(data->get(), meta->get());

  Status built = BuildHistory(&engine, data->get(), opt.snapshots);
  if (!built.ok()) Fail(built, "build history");

  // Locally scoped registry: the engine and the store gauges both outlive
  // it being read, and a fresh registry keeps the report's deltas clean
  // of anything the process-wide default has accumulated.
  retro::MetricsRegistry registry;
  ScopedCleanup store_gauges = (*data)->store()->RegisterMetrics(&registry);

  // Store-scoped shared scan cache: the eight passes below all read the
  // same store, so each unique page version is decoded once by the first
  // mechanism to touch it and served as a shared hit to the other seven.
  sql::SharedScanCache shared_cache;
  ScopedCleanup cache_gauges =
      shared_cache.RegisterMetrics(&registry, "rql.scan_cache");

  RqlOptions* opts = engine.mutable_options();
  opts->trace = true;
  opts->trace_capacity = static_cast<size_t>(opt.trace_capacity);
  opts->metrics = &registry;
  opts->parallel_workers = opt.workers;
  opts->profile = RqlProfile::kFast;
  opts->shared_scan_cache = &shared_cache;

  // Cross-run memoization: every mechanism runs twice, a cold pass that
  // publishes per-iteration results into the memo and a warm pass that
  // replays them — so the report shows both sides of the memo counters
  // and the memo_hit trace rows.
  auto memo = retro::MemoTable::Open(&env, "report_memo");
  if (!memo.ok()) Fail(memo.status(), "open memo table");
  opts->memo = memo->get();

  const std::string qs = "SELECT snap_id FROM SnapIds";
  struct Mechanism {
    const char* name;
    const char* table;
    std::function<Status()> run;
  };
  const Mechanism mechanisms[] = {
      {"CollateData", "RepCollate",
       [&] {
         return engine.CollateData(
             qs,
             "SELECT o_id, current_snapshot() AS sid FROM orders "
             "WHERE o_status = 'O'",
             "RepCollate");
       }},
      {"AggregateDataInVariable", "RepAggVar",
       [&] {
         return engine.AggregateDataInVariable(
             qs, "SELECT COUNT(*) AS open_cnt FROM orders "
                 "WHERE o_status = 'O'",
             "RepAggVar", "avg");
       }},
      {"AggregateDataInTable", "RepAggTab",
       [&] {
         return engine.AggregateDataInTable(
             qs, "SELECT o_id, o_price FROM orders", "RepAggTab",
             "(o_price,max)");
       }},
      {"CollateDataIntoIntervals", "RepIntervals",
       [&] {
         return engine.CollateDataIntoIntervals(
             qs, "SELECT o_id, o_status FROM orders", "RepIntervals");
       }},
  };

  std::printf("rql_report: %d snapshots, %d worker%s, all amortizations on, "
              "trace capacity %lld\n",
              opt.snapshots, opt.workers, opt.workers == 1 ? "" : "s",
              static_cast<long long>(opt.trace_capacity));

  std::vector<MechanismRun> runs;
  for (const char* pass : {"cold", "warm"}) {
    for (const Mechanism& m : mechanisms) {
      retro::MetricsRegistry::Snapshot before = registry.TakeSnapshot();
      Status s = m.run();
      if (!s.ok()) Fail(s, m.name);
      MechanismRun run;
      run.name = m.name;
      run.table = m.table;
      run.pass = pass;
      run.trace = engine.last_run_trace();
      run.delta = registry.TakeSnapshot().DeltaFrom(before);
      run.rows = RowsFromTrace(run.trace);

      std::printf("\n== %s -> %s (%s) ==\n", run.name.c_str(),
                  run.table.c_str(), pass);
      PrintIterationTable(run.rows);
      if (run.trace.dropped() > 0) {
        std::printf("  (trace dropped %lld oldest events; raise "
                    "--trace-capacity for a full stream)\n",
                    static_cast<long long>(run.trace.dropped()));
      }
      PrintMetricsDelta(run.delta);
      runs.push_back(std::move(run));
    }
  }

  std::printf("\n== memo table ==\n");
  std::printf("  %-32s %12lld\n", "entries",
              static_cast<long long>((*memo)->entry_count()));
  std::printf("  %-32s %12lld\n", "bytes",
              static_cast<long long>((*memo)->bytes()));
  std::printf("  %-32s %12lld\n", "log_bytes",
              static_cast<long long>((*memo)->log_bytes()));
  std::printf("  %-32s %12lld\n", "evictions",
              static_cast<long long>((*memo)->evictions()));

  const sql::SharedScanCache::Stats cache_stats = shared_cache.GetStats();
  std::printf("\n== shared scan cache ==\n");
  std::printf("  %-32s %12lld\n", "entries",
              static_cast<long long>(cache_stats.entries));
  std::printf("  %-32s %12lld\n", "bytes",
              static_cast<long long>(cache_stats.bytes));
  std::printf("  %-32s %12lld\n", "shared_hits",
              static_cast<long long>(cache_stats.shared_hits));
  std::printf("  %-32s %12lld\n", "misses",
              static_cast<long long>(cache_stats.misses));
  std::printf("  %-32s %12lld\n", "coalesced_decodes",
              static_cast<long long>(cache_stats.coalesced_decodes));
  std::printf("  %-32s %12lld\n", "inserts",
              static_cast<long long>(cache_stats.inserts));
  std::printf("  %-32s %12lld\n", "evictions",
              static_cast<long long>(cache_stats.evictions));
  std::printf("  %-32s %12lld\n", "abandoned_decodes",
              static_cast<long long>(cache_stats.abandoned_decodes));
  std::printf("  %-32s %12lld\n", "truncate_invalidations",
              static_cast<long long>(cache_stats.truncate_invalidations));

  retro::MetricsRegistry::Snapshot final_snap = registry.TakeSnapshot();
  // Pagelog diff-chain depth observed per archive read over the whole
  // report (always a single zero-depth bucket in kFull mode).
  {
    auto it = final_snap.histograms.find("rql.pagelog.diff_depth");
    std::printf("\n== pagelog diff-chain depth ==\n");
    if (it != final_snap.histograms.end() && it->second.count > 0) {
      std::printf("  %-32s %12lld\n", "reads_observed",
                  static_cast<long long>(it->second.count));
      std::printf("  %-32s %12.2f\n", "mean_depth",
                  static_cast<double>(it->second.sum_us) /
                      static_cast<double>(it->second.count));
    } else {
      std::printf("  (no archive reads observed)\n");
    }
  }
  std::printf("\n== component gauges (point-in-time) ==\n");
  for (const auto& [name, v] : final_snap.gauges) {
    std::printf("  %-32s %12lld\n", name.c_str(), static_cast<long long>(v));
  }

  if (!opt.json_path.empty()) {
    JsonWriter json(opt.json_path.c_str());
    json.BeginObject();
    json.Field("snapshots", opt.snapshots);
    json.Field("workers", opt.workers);
    json.Field("trace_capacity", opt.trace_capacity);
    json.BeginArray("runs");
    for (const MechanismRun& run : runs) {
      json.BeginObject();
      json.Field("mechanism", run.name);
      json.Field("table", run.table);
      json.Field("pass", run.pass);
      json.BeginArray("iterations");
      for (const IterRow& r : run.rows) {
        json.BeginObject();
        json.Field("index", r.index);
        json.Field("snapshot", static_cast<int64_t>(r.snapshot));
        json.Field("worker", static_cast<int64_t>(r.worker));
        json.Field("skipped", r.skipped);
        json.Field("memo_hit", r.memo_hit);
        json.Field("validated_pages", r.validated_pages);
        json.Field("io_us", r.io_us);
        json.Field("spt_build_us", r.spt_us);
        json.Field("query_eval_us", r.query_us);
        json.Field("index_create_us", r.index_us);
        json.Field("udf_us", r.udf_us);
        json.Field("total_us", r.TotalUs());
        json.Field("qq_rows", r.qq_rows);
        json.Field("maplog_pages", r.maplog_pages);
        json.Field("spt_delta_entries", r.spt_delta_entries);
        json.Field("pagelog_pages", r.pagelog_pages);
        json.Field("cache_hits", r.cache_hits);
        json.Field("db_pages", r.db_pages);
        json.Field("delta_pages", r.delta_pages);
        json.EndObject();
      }
      json.EndArray();
      WriteMetricsJson(&json, "metrics", run.delta);
      WriteTraceJson(&json, "trace", run.trace);
      json.EndObject();
    }
    json.EndArray();
    json.BeginObject("memo");
    json.Field("entries", static_cast<int64_t>((*memo)->entry_count()));
    json.Field("bytes", static_cast<int64_t>((*memo)->bytes()));
    json.Field("log_bytes", static_cast<int64_t>((*memo)->log_bytes()));
    json.Field("evictions", static_cast<int64_t>((*memo)->evictions()));
    json.EndObject();
    json.BeginObject("shared_cache");
    json.Field("entries", static_cast<int64_t>(cache_stats.entries));
    json.Field("bytes", static_cast<int64_t>(cache_stats.bytes));
    json.Field("shared_hits", cache_stats.shared_hits);
    json.Field("misses", cache_stats.misses);
    json.Field("coalesced_decodes", cache_stats.coalesced_decodes);
    json.Field("inserts", cache_stats.inserts);
    json.Field("evictions", cache_stats.evictions);
    json.Field("abandoned_decodes", cache_stats.abandoned_decodes);
    json.Field("truncate_invalidations", cache_stats.truncate_invalidations);
    json.EndObject();
    WriteMetricsJson(&json, "final", final_snap, /*include_zero=*/true);
    json.EndObject();
    json.Close();
    std::printf("\nwrote %s\n", opt.json_path.c_str());
  }

  if (!opt.jsonl_path.empty()) {
    std::FILE* f = std::fopen(opt.jsonl_path.c_str(), "w");
    if (f == nullptr) {
      Fail(Status::Internal("cannot open " + opt.jsonl_path), "jsonl");
    }
    for (const MechanismRun& run : runs) {
      std::fprintf(f, "{\"mechanism\": \"%s\"}\n", run.name.c_str());
      WriteTraceJsonl(run.trace, f);
    }
    std::fclose(f);
    std::printf("wrote %s\n", opt.jsonl_path.c_str());
  }
  return 0;
}

bool ParseArg(const char* arg, const char* name, const char** value) {
  size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *value = arg + n + 1;
  return true;
}

}  // namespace
}  // namespace rql::bench

int main(int argc, char** argv) {
  rql::bench::ReportOptions opt;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if (rql::bench::ParseArg(argv[i], "--snapshots", &v)) {
      opt.snapshots = std::atoi(v);
    } else if (rql::bench::ParseArg(argv[i], "--workers", &v)) {
      opt.workers = std::atoi(v);
    } else if (rql::bench::ParseArg(argv[i], "--trace-capacity", &v)) {
      opt.trace_capacity = std::atoll(v);
    } else if (rql::bench::ParseArg(argv[i], "--json", &v)) {
      opt.json_path = v;
    } else if (rql::bench::ParseArg(argv[i], "--jsonl", &v)) {
      opt.jsonl_path = v;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--snapshots=N] [--workers=N] "
                   "[--trace-capacity=N] [--json=PATH] [--jsonl=PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (opt.snapshots < 1 || opt.workers < 1 || opt.trace_capacity < 1) {
    std::fprintf(stderr, "rql_report: all numeric flags must be >= 1\n");
    return 2;
  }
  return rql::bench::Run(opt);
}
