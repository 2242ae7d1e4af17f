// Reproduces the paper's in-text Section 3 claim: "We have also
// experimented with alternative Aggregate Data in Table implementation
// using a sort-merge based algorithm that turned out to be costlier."
//
// Runs the Figure 12 aggregation with both strategies and compares
// per-iteration cost. The index-probe implementation pays one index build
// in the cold iteration and per-record probes afterwards; the sort-merge
// implementation re-sorts the batch and rewrites the whole result table
// every iteration. A third run takes the index-probe strategy under
// RqlProfile::kFast, whose fold reads an in-memory group directory instead
// of probing the result table's index.
//
// Machine-readable output goes to BENCH_aggtable.json; the bench exits
// non-zero unless all three result tables hold byte-identical rows (the
// kFast table also in the same heap order; sort-merge rewrites its table
// in group order) and the kFast fold counts the same probes, inserts and
// updates as the paper's.

#include <algorithm>

#include "bench_common.h"

namespace rql::bench {
namespace {

struct StrategyRun {
  const char* name;
  Breakdown cold;
  Breakdown hot;
  double total_ms = 0;
  std::vector<std::string> rows;  // encoded result table, in heap order
};

StrategyRun RunStrategy(tpch::History* history, const char* name,
                        AggTableStrategy strategy, RqlProfile profile,
                        const char* table) {
  RqlEngine* engine = history->engine();
  const RqlOptions saved = engine->options();
  engine->mutable_options()->agg_table_strategy = strategy;
  engine->mutable_options()->profile = profile;
  // Iteration 0 is the cold one: the run starts on an empty snapshot cache.
  history->data()->store()->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInTable(history->QsInterval(1, 25),
                                           kQqAgg1, table, "(cn,max)"));
  *engine->mutable_options() = saved;
  const RqlRunStats& stats = engine->last_run_stats();
  StrategyRun r{name, FromIteration(stats.iterations[0]),
                MeanIterations(stats, 1), RunTotalMs(stats), {}};
  auto rows = history->meta()->Query(std::string("SELECT * FROM ") + table);
  if (!rows.ok()) Fail(rows.status(), "dump result table");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }
  return r;
}

void WriteStrategyJson(JsonWriter* json, const StrategyRun& r) {
  json->BeginObject();
  json->Field("strategy", r.name);
  json->Field("cold_total_ms", r.cold.total_ms);
  json->Field("hot_udf_ms", r.hot.udf_ms);
  json->Field("hot_total_ms", r.hot.total_ms);
  json->Field("hot_probes", r.hot.probes, 0);
  json->Field("hot_inserts", r.hot.inserts, 0);
  json->Field("hot_updates", r.hot.updates, 0);
  json->Field("run_total_ms", r.total_ms);
  json->Field("result_rows", static_cast<int64_t>(r.rows.size()));
  json->EndObject();
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();

  std::printf("Ablation: AggregateDataInTable strategy — index probe vs "
              "sort-merge (Qq_agg, UW30)\n");
  PrintBreakdownHeader("iteration");

  // Warm up both paths once (process caches, allocator) so the measured
  // runs compare like for like.
  RunStrategy(history, "warm", AggTableStrategy::kIndexProbe,
              RqlProfile::kPaperFaithful, "Warm");
  RunStrategy(history, "warm", AggTableStrategy::kSortMerge,
              RqlProfile::kPaperFaithful, "Warm");

  StrategyRun probe =
      RunStrategy(history, "index_probe", AggTableStrategy::kIndexProbe,
                  RqlProfile::kPaperFaithful, "ProbeResult");
  PrintBreakdownRow("index-probe cold", probe.cold);
  PrintBreakdownRow("index-probe hot", probe.hot);
  StrategyRun merge =
      RunStrategy(history, "sort_merge", AggTableStrategy::kSortMerge,
                  RqlProfile::kPaperFaithful, "MergeResult");
  PrintBreakdownRow("sort-merge cold", merge.cold);
  PrintBreakdownRow("sort-merge hot", merge.hot);
  StrategyRun fast =
      RunStrategy(history, "index_probe_fast", AggTableStrategy::kIndexProbe,
                  RqlProfile::kFast, "FastResult");
  PrintBreakdownRow("index-probe kFast cold", fast.cold);
  PrintBreakdownRow("index-probe kFast hot", fast.hot);

  std::printf("\nresult-processing (udf) per hot iteration: probe %.2f ms "
              "vs merge %.2f ms\n(merge/probe = %.2fx); kFast directory "
              "fold %.2f ms\n",
              probe.hot.udf_ms, merge.hot.udf_ms,
              merge.hot.udf_ms / std::max(0.01, probe.hot.udf_ms),
              fast.hot.udf_ms);
  std::printf("run totals (dominated by the identical simulated io/spt "
              "constants):\n  index-probe %.1f ms, sort-merge %.1f ms, "
              "index-probe kFast %.1f ms\n",
              probe.total_ms, merge.total_ms, fast.total_ms);

  bool checks_ok = true;
  auto check = [&checks_ok](bool ok, const char* what) {
    if (!ok) {
      std::printf("CHECK FAILED: %s\n", what);
      checks_ok = false;
    }
  };
  auto sorted = [](std::vector<std::string> rows) {
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  const bool merge_matches = sorted(merge.rows) == sorted(probe.rows);
  check(!probe.rows.empty(), "index-probe result table is empty");
  check(merge_matches, "sort-merge result rows differ from index-probe");
  check(fast.rows == probe.rows,
        "kFast index-probe result table differs from paper-faithful");
  check(fast.hot.probes == probe.hot.probes &&
            fast.hot.inserts == probe.hot.inserts &&
            fast.hot.updates == probe.hot.updates,
        "kFast fold counts differ from the paper-faithful probe's");

  JsonWriter json("BENCH_aggtable.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.BeginArray("strategies");
  for (const StrategyRun* r : {&probe, &merge, &fast}) {
    WriteStrategyJson(&json, *r);
  }
  json.EndArray();
  json.Field("tables_match", merge_matches && fast.rows == probe.rows);
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf(
      "\nExpected: identical result tables (checked); the strategies "
      "differ only in\nthe result-processing component, where sort-merge "
      "is costlier (it re-sorts the\nbatch and rewrites the result table "
      "every iteration) — the direction of the\npaper's finding; the "
      "margin grows with the result-table size. The kFast\nfold does the "
      "same probes, inserts and updates without index seeks.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
