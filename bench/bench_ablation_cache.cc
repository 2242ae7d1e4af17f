// Ablation (beyond the paper's figures): how much of the page-sharing
// benefit measured in Figure 6 comes from the snapshot page cache?
// Shrinking the cache to a single frame forces every shared pre-state to
// be re-fetched from the Pagelog, so the ratio C should climb back
// towards 1 — the all-cold behaviour.

#include "bench_common.h"

namespace rql::bench {
namespace {

double MeasureC(tpch::History* history, int interval_len,
                uint64_t cache_pages) {
  RqlEngine* engine = history->engine();
  storage::BufferPool* cache = history->data()->store()->snapshot_cache();
  uint64_t original = cache->capacity();
  cache->set_capacity(cache_pages);
  std::string qs = history->QsInterval(1, interval_len, 1);

  // Warm up once so both measured runs see the same environment.
  BENCH_CHECK(engine->AggregateDataInVariable(qs, kQqIo, "Result", "avg"));
  BENCH_CHECK(engine->AggregateDataInVariable(qs, kQqIo, "Result", "avg"));
  double rql_ms = RunTotalMs(engine->last_run_stats());

  engine->mutable_options()->cache_policy = RqlCachePolicy::kColdPerIteration;
  BENCH_CHECK(engine->AggregateDataInVariable(qs, kQqIo, "Result", "avg"));
  double all_cold_ms = RunTotalMs(engine->last_run_stats());
  engine->mutable_options()->cache_policy = RqlCachePolicy::kColdPerRun;

  cache->set_capacity(original);
  return all_cold_ms > 0 ? rql_ms / all_cold_ms : 0.0;
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");

  std::printf("Ablation: snapshot page cache capacity vs ratio C "
              "(AggV(Qs_30, Qq_io, AVG), UW30)\n");
  std::printf("%-22s %10s\n", "cache capacity", "ratio C");
  const uint64_t capacities[] = {1, 64, 256, 1024, 0 /* unbounded */};
  for (uint64_t cap : capacities) {
    double c = MeasureC(uw30->get(), 30, cap);
    std::printf("%-22s %10.3f\n",
                cap == 0 ? "unbounded" : std::to_string(cap).c_str(), c);
  }
  std::printf(
      "\nExpected: C near 1 with a one-page cache (no sharing benefit) and "
      "falling\nmonotonically to the Figure 6 plateau once the cache holds "
      "the query's\nsnapshot working set.\n");
  return 0;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
