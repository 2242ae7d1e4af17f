// Reproduces Figure 9: CPU-intensive Qq (the lineitem-part join, Qq_cpu)
// with AggregateDataInVariable(Qs_50, Qq_cpu, AVG) under UW30, with and
// without a native index on lineitem(l_partkey) — and extends it with the
// execution-profile ablation on the CPU-bound part of the figure: a
// scan-filter-aggregate over lineitem run paper-faithfully (row at a time,
// Qq re-parsed per iteration) vs. RqlProfile::kFast (vectorized, one plan
// per run).
//
// Expected shape (paper): without a native index the engine builds a
// transient ("automatic covering") index on lineitem for every iteration,
// and that index creation dominates the iteration cost, dwarfing the
// cold/hot I/O difference. With a native index captured in the snapshots
// the index-creation bar disappears, while I/O and SPT-build grow a little
// because the index enlarges the database and the Pagelog.
//
// Machine-readable output goes to BENCH_cpu.json (CI artifact). The bench
// self-checks the ablation: the fast profile must produce the byte-
// identical result table, must actually engage the batch path
// (batches_scanned > 0 under kFast, 0 under kPaperFaithful), must keep its
// hands off the join plan (Qq_cpu falls back to the row path), and must
// cut Qq evaluation time of the CPU-bound scan-aggregate at least 1.5x.

#include "bench_common.h"
#include "sql/shared_scan_cache.h"

namespace rql::bench {
namespace {

void RunCase(const char* label, tpch::History* history, int count,
             JsonWriter* json) {
  RqlEngine* engine = history->engine();
  // Iteration 0 is the cold one: the run starts on an empty snapshot cache.
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInVariable(
      history->QsInterval(1, count), kQqCpu, "Result", "avg"));
  const RqlRunStats& stats = engine->last_run_stats();
  Breakdown cold = FromIteration(stats.iterations[0]);
  Breakdown hot = MeanIterations(stats, 1);
  PrintBreakdownRow(std::string(label) + " cold iteration", cold);
  PrintBreakdownRow(std::string(label) + " hot iteration", hot);
  json->BeginObject();
  json->Field("case", label);
  json->Field("cold_total_ms", cold.total_ms);
  json->Field("cold_index_ms", cold.index_ms);
  json->Field("hot_total_ms", hot.total_ms);
  json->Field("hot_index_ms", hot.index_ms);
  json->Field("hot_io_ms", hot.io_ms);
  json->Field("hot_spt_ms", hot.spt_ms);
  json->EndObject();
}

/// The CPU-bound single-table workload of the ablation: a predicate scan
/// plus aggregate folds over lineitem, the access shape the batch path
/// serves (the paper's Qq_cpu join keeps its row-at-a-time plan).
inline constexpr char kQqScanAgg[] =
    "SELECT COUNT(*) AS cnt, SUM(l_extendedprice) AS rev, "
    "MAX(l_quantity) AS mq FROM lineitem WHERE l_quantity < 25";

struct AblationResult {
  double query_ms = 0;   // sum of per-iteration Qq evaluation time
  double total_ms = 0;
  int64_t batches = 0;
  int64_t batch_rows = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

AblationResult RunScanAgg(tpch::History* history, int count, bool batch) {
  RqlEngine* engine = history->engine();
  RqlOptions* opts = engine->mutable_options();
  // Decoded pages are cached in both configs, so the comparison isolates
  // the execution spine (per-row interpretation vs. vectorized folds)
  // rather than fetch/decode costs.
  sql::SharedScanCache run_cache({.max_bytes = 0});
  opts->shared_scan_cache = &run_cache;
  opts->profile = batch ? RqlProfile::kFast : RqlProfile::kPaperFaithful;
  std::string qs = history->QsInterval(1, count);
  // Warm-up evens out OS caches and the allocator; the measured run still
  // starts with a cold snapshot cache and an empty decoded-page cache.
  retro::SnapshotStore* store = history->data()->store();
  store->ClearSnapshotCache();
  BENCH_CHECK(engine->CollateData(qs, kQqScanAgg, "ScanAgg"));
  run_cache.Clear();
  store->ClearSnapshotCache();
  BENCH_CHECK(engine->CollateData(qs, kQqScanAgg, "ScanAgg"));

  AblationResult r;
  const RqlRunStats& stats = engine->last_run_stats();
  for (const RqlIterationStats& it : stats.iterations) {
    r.query_ms += it.query_eval_us / 1000.0;
    r.batches += it.batches_scanned;
    r.batch_rows += it.batch_rows;
  }
  r.total_ms = RunTotalMs(stats);
  auto rows = history->meta()->Query("SELECT * FROM ScanAgg");
  if (!rows.ok()) Fail(rows.status(), "dump ScanAgg");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }
  *opts = RqlOptions{};
  return r;
}

int Run() {
  // The no-index case reuses the standard UW30 history.
  auto plain = GetHistory("uw30");
  auto indexed = GetHistory("uw30_lpk");
  if (!plain.ok()) Fail(plain.status(), "uw30 history");
  if (!indexed.ok()) Fail(indexed.status(), "uw30_lpk history");

  JsonWriter json("BENCH_cpu.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  bool checks_ok = true;

  std::printf("Figure 9: CPU-intensive Qq_cpu (join), "
              "AggregateDataInVariable(Qs_50, Qq_cpu, AVG), UW30\n");
  PrintBreakdownHeader("iteration");
  json.BeginArray("figure9");
  RunCase("w/o index", plain->get(), 25, &json);
  RunCase("w/ native index", indexed->get(), 25, &json);
  json.EndArray();

  // --- batch-execution ablation on the CPU-bound scan-aggregate ----------
  std::printf("\nBatch-execution ablation: CollateData(Qs_25, "
              "scan-filter-aggregate over lineitem)\n");
  std::printf("%-10s %12s %12s %10s %12s\n", "config", "query_ms",
              "total_ms", "batches", "batch_rows");
  AblationResult row_path = RunScanAgg(plain->get(), 25, false);
  AblationResult batch_path = RunScanAgg(plain->get(), 25, true);
  for (const auto& [name, r] :
       {std::pair<const char*, const AblationResult&>{"row", row_path},
        {"batch", batch_path}}) {
    std::printf("%-10s %12.2f %12.2f %10lld %12lld\n", name, r.query_ms,
                r.total_ms, static_cast<long long>(r.batches),
                static_cast<long long>(r.batch_rows));
  }
  double speedup =
      batch_path.query_ms > 0 ? row_path.query_ms / batch_path.query_ms : 0;
  std::printf("batch speedup on Qq evaluation: %.2fx\n", speedup);

  json.BeginObject("batch_ablation");
  json.Field("qq", "scan_filter_aggregate_lineitem");
  json.Field("row_query_ms", row_path.query_ms);
  json.Field("batch_query_ms", batch_path.query_ms);
  json.Field("row_total_ms", row_path.total_ms);
  json.Field("batch_total_ms", batch_path.total_ms);
  json.Field("batches_scanned", batch_path.batches);
  json.Field("batch_rows", batch_path.batch_rows);
  json.Field("speedup", speedup);
  bool rows_match = batch_path.rows == row_path.rows;
  json.Field("rows_match", rows_match);
  json.EndObject();

  // Correctness: the batch path is a pure optimization.
  if (!rows_match) {
    std::printf("CHECK FAILED: batch result table differs from row path\n");
    checks_ok = false;
  }
  if (batch_path.batches <= 0 || batch_path.batch_rows <= 0) {
    std::printf("CHECK FAILED: batch run scanned no batches\n");
    checks_ok = false;
  }
  if (row_path.batches != 0) {
    std::printf("CHECK FAILED: paper-faithful run scanned %lld batches\n",
                static_cast<long long>(row_path.batches));
    checks_ok = false;
  }
  // Acceptance: vectorization must pay on the CPU-bound scan-aggregate.
  if (speedup < 1.5) {
    std::printf("CHECK FAILED: batch speedup %.2fx (want >= 1.5x)\n",
                speedup);
    checks_ok = false;
  }
  // The join keeps its row-at-a-time plan even under kFast.
  {
    RqlEngine* engine = plain->get()->engine();
    engine->mutable_options()->profile = RqlProfile::kFast;
    BENCH_CHECK(engine->AggregateDataInVariable(
        plain->get()->QsInterval(1, 5), kQqCpu, "Result", "avg"));
    int64_t join_batches = 0;
    for (const RqlIterationStats& it :
         engine->last_run_stats().iterations) {
      join_batches += it.batches_scanned;
    }
    *engine->mutable_options() = RqlOptions{};
    json.Field("join_batches_scanned", join_batches);
    if (join_batches != 0) {
      std::printf("CHECK FAILED: join Qq took the batch path (%lld "
                  "batches)\n", static_cast<long long>(join_batches));
      checks_ok = false;
    }
  }
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf(
      "\nExpected: without the native index, index_ms dominates both cold "
      "and hot\niterations (cold vs hot differ little). With the native "
      "index, index_ms ~ 0\nwhile io/spt grow (larger database and "
      "Pagelog). The batch ablation keeps the\nresult table byte-identical "
      "while cutting Qq evaluation >= 1.5x.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
