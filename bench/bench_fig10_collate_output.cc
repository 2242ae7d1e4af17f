// Reproduces Figure 10: single-iteration cost of CollateData(Qs_50,
// Qq_collate, T) as the Qq output size grows, under UW30. Qq_collate has a
// single date predicate; varying the date controls how many order keys
// each iteration returns, and every returned record triggers the RQL UDF
// callback (an insert into the result table).
//
// Expected shape (paper): the RQL UDF cost grows linearly with the output
// size and dominates the iteration for large outputs; snapshot page
// sharing (cold vs. hot) barely matters for this CPU-bound query.

#include <vector>

#include "bench_common.h"

namespace rql::bench {
namespace {

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();

  // Pick date predicates by quantile of the live order dates; the paper's
  // outputs (500 ... 1M rows over 1.5M orders) map to the same fractions
  // of our scaled order count.
  auto dates = history->data()->Query(
      "SELECT o_orderdate FROM orders ORDER BY o_orderdate");
  if (!dates.ok()) Fail(dates.status(), "order dates");
  size_t total = dates->rows.size();
  const double fractions[] = {0.0005, 0.03, 0.35, 0.95};

  std::printf("Figure 10: CollateData(Qs_50, Qq_collate, T) with varying Qq "
              "output size, UW30\n");
  PrintBreakdownHeader("iteration");
  for (double f : fractions) {
    size_t idx = std::min(total - 1, static_cast<size_t>(f * total));
    std::string date = dates->rows[idx][0].text();
    RqlEngine* engine = history->engine();
    // Iteration 0 is the cold one: each run starts on an empty snapshot
    // cache.
    history->data()->store()->ClearSnapshotCache();
    BENCH_CHECK(engine->CollateData(history->QsInterval(1, 20),
                                    QqCollate(date), "Result"));
    const RqlRunStats& stats = engine->last_run_stats();
    int64_t rows = stats.iterations[0].qq_rows;
    PrintBreakdownRow("cold, ~" + std::to_string(rows) + " records",
                      FromIteration(stats.iterations[0]));
    PrintBreakdownRow("hot,  ~" + std::to_string(rows) + " records",
                      MeanIterations(stats, 1));
  }
  std::printf(
      "\nExpected: udf_ms scales with the record count and dominates the "
      "largest\noutputs; io_ms is small and similar across output sizes "
      "(the scan cost is\nfixed), so cold/hot differences stay minor.\n");
  return 0;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
