// Reproduces Figure 12: single-iteration cost of CollateData(Qs_50,
// Qq_agg) vs. AggregateDataInTable(Qs_50, Qq_agg, (cn,MAX)) under UW30.
//
// Expected shape (paper): the cold iteration of Aggregate Data in Table is
// more expensive because it builds an index on its result table; its hot
// iterations are more expensive than Collate Data's because each record
// triggers an index probe (plus occasional updates) rather than a plain
// insert.

#include "bench_common.h"

namespace rql::bench {
namespace {

void PrintOps(const char* label, const Breakdown& b) {
  std::printf("    %-30s probes=%-8.0f inserts=%-8.0f updates=%-8.0f\n",
              label, b.probes, b.inserts, b.updates);
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();
  RqlEngine* engine = history->engine();

  std::printf("Figure 12: single-iteration cost, CollateData vs "
              "AggregateDataInTable (Qq_agg, UW30)\n");
  PrintBreakdownHeader("iteration");

  // Iteration 0 is the cold one: each run starts on an empty snapshot
  // cache.
  retro::SnapshotStore* store = history->data()->store();
  store->ClearSnapshotCache();
  BENCH_CHECK(engine->CollateData(history->QsInterval(1, 50), kQqAgg1,
                                  "CollateResult"));
  const RqlRunStats& collate = engine->last_run_stats();
  Breakdown collate_cold = FromIteration(collate.iterations[0]);
  Breakdown collate_hot = MeanIterations(collate, 1);
  PrintBreakdownRow("CollateData cold iteration", collate_cold);
  PrintBreakdownRow("CollateData hot iteration", collate_hot);

  store->ClearSnapshotCache();
  BENCH_CHECK(engine->AggregateDataInTable(history->QsInterval(1, 50),
                                           kQqAgg1, "AggResult", "(cn,max)"));
  const RqlRunStats& agg = engine->last_run_stats();
  Breakdown agg_cold = FromIteration(agg.iterations[0]);
  Breakdown agg_hot = MeanIterations(agg, 1);
  PrintBreakdownRow("AggregateTable cold iteration", agg_cold);
  PrintBreakdownRow("AggregateTable hot iteration", agg_hot);

  std::printf("\nResult-table operations per iteration:\n");
  PrintOps("CollateData cold", collate_cold);
  PrintOps("CollateData hot", collate_hot);
  PrintOps("AggregateTable cold", agg_cold);
  PrintOps("AggregateTable hot", agg_hot);

  std::printf(
      "\nExpected: AggregateTable cold > CollateData cold (result-table "
      "index build);\nAggregateTable hot > CollateData hot (every record "
      "probes the index, few\nresult in updates); CollateData performs one "
      "insert per record instead.\n");
  return 0;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
