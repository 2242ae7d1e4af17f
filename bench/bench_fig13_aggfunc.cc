// Reproduces Figure 13: AggregateDataInTable(Qs_50, Qq_agg, ...) with MAX
// vs. SUM as the aggregate function, under UW30 — and re-runs both with
// RqlProfile::kFast to confirm the vectorized spine and the in-memory
// result fold reproduce the across-time GROUP BY byte-for-byte while
// reporting their speedup.
//
// Expected shape (paper): cold iterations cost the same (identical inserts
// and index build). Hot iterations do the same number of index probes, but
// SUM updates the result row for (almost) every record returned by Qq —
// the per-customer count changes every time — while MAX only updates when
// a new maximum appears, so SUM's hot iterations are noticeably costlier.
//
// Machine-readable output goes to BENCH_aggfunc.json (CI artifact); the
// bench exits non-zero if the batch path diverges from the row path.

#include "bench_common.h"

namespace rql::bench {
namespace {

struct FuncRun {
  Breakdown cold;
  Breakdown hot;
  double query_ms = 0;  // summed per-iteration Qq evaluation time
  int64_t batches = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

FuncRun RunFunc(tpch::History* history, const char* table,
                const char* pairs) {
  RqlEngine* engine = history->engine();
  // Iteration 0 is the cold one: the run starts on an empty snapshot cache.
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInTable(history->QsInterval(1, 50),
                                           kQqAgg1, table, pairs));
  FuncRun r;
  const RqlRunStats& stats = engine->last_run_stats();
  r.cold = FromIteration(stats.iterations[0]);
  r.hot = MeanIterations(stats, 1);
  for (const RqlIterationStats& it : stats.iterations) {
    r.query_ms += it.query_eval_us / 1000.0;
    r.batches += it.batches_scanned;
  }
  auto rows = history->meta()->Query(std::string("SELECT * FROM ") + table);
  if (!rows.ok()) Fail(rows.status(), "dump result table");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }
  return r;
}

void WriteFuncJson(JsonWriter* json, const char* func, const FuncRun& row,
                   const FuncRun& batch) {
  json->BeginObject();
  json->Field("func", func);
  json->Field("cold_total_ms", row.cold.total_ms);
  json->Field("hot_total_ms", row.hot.total_ms);
  json->Field("hot_updates", row.hot.updates, 0);
  json->Field("hot_probes", row.hot.probes, 0);
  json->Field("fast_hot_udf_ms", batch.hot.udf_ms);
  json->Field("fast_hot_total_ms", batch.hot.total_ms);
  json->Field("row_query_ms", row.query_ms);
  json->Field("batch_query_ms", batch.query_ms);
  json->Field("batch_batches_scanned", batch.batches);
  json->Field("speedup",
              batch.query_ms > 0 ? row.query_ms / batch.query_ms : 0);
  json->Field("rows_match", batch.rows == row.rows);
  json->EndObject();
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();
  RqlEngine* engine = history->engine();

  std::printf("Figure 13: AggregateDataInTable aggregate functions "
              "(Qq_agg, Qs_50, UW30)\n");
  PrintBreakdownHeader("iteration");

  FuncRun max_row = RunFunc(history, "MaxResult", "(cn,max)");
  PrintBreakdownRow("MAX aggregation cold", max_row.cold);
  PrintBreakdownRow("MAX aggregation hot", max_row.hot);

  FuncRun sum_row = RunFunc(history, "SumResult", "(cn,sum)");
  PrintBreakdownRow("SUM aggregation cold", sum_row.cold);
  PrintBreakdownRow("SUM aggregation hot", sum_row.hot);

  // Same runs on the vectorized spine; PrepareResultTable drops the result
  // tables first, so the dumps compare run against run, not accumulations.
  engine->mutable_options()->profile = RqlProfile::kFast;
  FuncRun max_batch = RunFunc(history, "MaxResult", "(cn,max)");
  FuncRun sum_batch = RunFunc(history, "SumResult", "(cn,sum)");
  *engine->mutable_options() = RqlOptions{};
  PrintBreakdownRow("MAX aggregation kFast hot", max_batch.hot);
  PrintBreakdownRow("SUM aggregation kFast hot", sum_batch.hot);

  std::printf("\nResult-table updates per hot iteration: MAX=%.0f SUM=%.0f "
              "(probes: MAX=%.0f SUM=%.0f)\n",
              max_row.hot.updates, sum_row.hot.updates, max_row.hot.probes,
              sum_row.hot.probes);
  std::printf("Batch execution Qq evaluation: MAX %.2f -> %.2f ms "
              "(%.2fx), SUM %.2f -> %.2f ms (%.2fx)\n",
              max_row.query_ms, max_batch.query_ms,
              max_batch.query_ms > 0 ? max_row.query_ms / max_batch.query_ms
                                     : 0,
              sum_row.query_ms, sum_batch.query_ms,
              sum_batch.query_ms > 0 ? sum_row.query_ms / sum_batch.query_ms
                                     : 0);

  JsonWriter json("BENCH_aggfunc.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.BeginArray("figure13");
  WriteFuncJson(&json, "max", max_row, max_batch);
  WriteFuncJson(&json, "sum", sum_row, sum_batch);
  json.EndArray();

  bool checks_ok = true;
  for (const auto& [func, row, batch] :
       {std::tuple<const char*, const FuncRun&, const FuncRun&>{
            "MAX", max_row, max_batch},
        {"SUM", sum_row, sum_batch}}) {
    if (batch.rows != row.rows) {
      std::printf("CHECK FAILED: %s batch result table differs from row "
                  "path\n", func);
      checks_ok = false;
    }
    if (batch.batches <= 0) {
      std::printf("CHECK FAILED: %s batch run scanned no batches\n", func);
      checks_ok = false;
    }
    if (row.batches != 0) {
      std::printf("CHECK FAILED: %s paper-faithful run scanned %lld "
                  "batches\n", func, static_cast<long long>(row.batches));
      checks_ok = false;
    }
  }
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf(
      "\nExpected: cold iterations match; hot iterations probe equally but "
      "SUM\nperforms updates for (almost) every probed record while MAX "
      "updates rarely,\nmaking SUM's hot iterations costlier. The batch "
      "re-runs must reproduce both\nresult tables byte-for-byte.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
