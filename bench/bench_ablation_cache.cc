// Ablation (beyond the paper's figures): how much of the page-sharing
// benefit measured in Figure 6 comes from the snapshot page cache?
// Shrinking the cache to a single frame forces every shared pre-state to
// be re-fetched from the Pagelog, so the ratio C should climb back
// towards 1 — the all-cold behaviour.

#include "bench_common.h"

namespace rql::bench {
namespace {

RatioC MeasureC(tpch::History* history, int interval_len,
                uint64_t cache_pages) {
  RqlEngine* engine = history->engine();
  storage::BufferPool* cache = history->data()->store()->snapshot_cache();
  uint64_t original = cache->capacity();
  cache->set_capacity(cache_pages);
  RatioC r = MeasureRatioC(
      engine, history->QsInterval(1, interval_len, 1),
      [&](const std::string& qs) {
        return engine->AggregateDataInVariable(qs, kQqIo, "Result", "avg");
      });
  cache->set_capacity(original);
  return r;
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");

  std::printf("Ablation: snapshot page cache capacity vs ratio C "
              "(AggV(Qs_30, Qq_io, AVG), UW30)\n");
  std::printf("%-22s %10s %24s\n", "cache capacity", "ratio C",
              "all-cold plog/mlog/db");
  const uint64_t capacities[] = {1, 64, 256, 1024, 0 /* unbounded */};
  for (uint64_t cap : capacities) {
    RatioC r = MeasureC(uw30->get(), 30, cap);
    std::printf("%-22s %10.3f %24s\n",
                cap == 0 ? "unbounded" : std::to_string(cap).c_str(), r.c,
                PageTotals(r.all_cold).c_str());
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
