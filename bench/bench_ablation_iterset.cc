// Ablation: iteration-setup amortization across a snapshot set.
//
// The paper's RQL loop pays three per-iteration setup costs that are
// invariant (or nearly so) across the snapshots of one Qs set: the SPT
// build scans the same Maplog suffix again and again, Qq is re-lexed,
// re-parsed and re-planned per snapshot, and Qq is evaluated row at a
// time. This bench compares the paper-faithful profile against
// RqlProfile::kFast (incremental SPT, one Qq plan per run, vectorized
// scans) over ordered snapshot sets of 10 / 50 / 100 old snapshots
// (CollateData, UW30) and reports, per profile: cumulative Maplog pages
// scanned, cumulative simulated SPT time, Qq parse/plan invocations, and
// total run time.
// Result tables are compared byte-for-byte against the baseline run.
//
// Machine-readable output goes to BENCH_iterset.json (CI artifact).

#include "bench_common.h"

#include <vector>

namespace rql::bench {
namespace {

struct Config {
  const char* name;
  RqlProfile profile;
};

constexpr Config kConfigs[] = {
    {"baseline", RqlProfile::kPaperFaithful},
    {"fast", RqlProfile::kFast},
};

struct RunResult {
  int64_t maplog_pages = 0;       // cumulative, over all iterations
  int64_t spt_delta_entries = 0;
  int64_t plan_cache_hits = 0;
  int64_t qq_parses = 0;
  double spt_ms = 0;
  double io_ms = 0;
  double total_ms = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

RunResult RunConfig(tpch::History* history, const Config& config,
                    const std::string& qs, const std::string& qq) {
  RqlEngine* engine = history->engine();
  RqlOptions* opts = engine->mutable_options();
  opts->profile = config.profile;
  // Comparable Pagelog I/O across configs: every run starts cold.
  history->data()->store()->ClearSnapshotCache();

  // Counters come from the metrics registry the engine publishes into at
  // run end (delta around the run == the run's RqlRunStats).
  retro::MetricsRegistry* metrics = engine->metrics();
  retro::MetricsRegistry::Snapshot before = metrics->TakeSnapshot();
  BENCH_CHECK(engine->CollateData(qs, qq, "IterSet"));
  retro::MetricsRegistry::Snapshot delta =
      metrics->TakeSnapshot().DeltaFrom(before);

  RunResult r;
  r.qq_parses = delta.counter("rql.qq_parse_count");
  r.total_ms = DerivedMs(delta);
  r.maplog_pages = delta.counter("rql.maplog_pages");
  r.spt_delta_entries = delta.counter("rql.spt_delta_entries");
  r.plan_cache_hits = delta.counter("rql.plan_cache_hits");
  r.spt_ms = kCostModel.SptUs(delta.counter("rql.spt_build_us"),
                              r.maplog_pages) / 1000.0;
  r.io_ms = kCostModel.IoUs(delta.counter("rql.pagelog_pages")) / 1000.0;

  auto rows = history->meta()->Query("SELECT * FROM IterSet");
  if (!rows.ok()) Fail(rows.status(), "dump IterSet");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }

  opts->profile = RqlProfile::kPaperFaithful;
  return r;
}

int Run() {
  auto uw30 = GetHistory("uw30");
  if (!uw30.ok()) Fail(uw30.status(), "uw30 history");
  tpch::History* history = uw30->get();

  // Old snapshots in ascending id order: the intended Qs shape for the
  // incremental SPT path, and the one with the longest Maplog suffixes.
  const int counts[] = {10, 50, 100};
  const std::string qq = QqCollate("1993-01-01");

  std::printf("Ablation: iteration-setup amortization, "
              "CollateData(Qs_n ascending, Qq_collate), UW30\n");

  JsonWriter json("BENCH_iterset.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.BeginArray("sets");

  bool checks_ok = true;
  for (int count : counts) {
    std::string qs = history->QsInterval(1, count);
    std::printf("\n-- %d-snapshot set --\n", count);
    std::printf("%-22s %12s %10s %10s %10s %10s %10s\n", "config",
                "maplog_pg", "spt_ms", "io_ms", "total_ms", "parses",
                "plan_hits");

    RunResult baseline;
    json.BeginObject();
    json.Field("count", count);
    json.BeginArray("configs");
    for (size_t c = 0; c < sizeof(kConfigs) / sizeof(kConfigs[0]); ++c) {
      const Config& config = kConfigs[c];
      RunResult r = RunConfig(history, config, qs, qq);
      std::printf("%-22s %12lld %10.2f %10.2f %10.2f %10lld %10lld\n",
                  config.name, static_cast<long long>(r.maplog_pages),
                  r.spt_ms, r.io_ms, r.total_ms,
                  static_cast<long long>(r.qq_parses),
                  static_cast<long long>(r.plan_cache_hits));
      json.BeginObject();
      json.Field("name", config.name);
      json.Field("maplog_pages", r.maplog_pages);
      json.Field("spt_ms", r.spt_ms);
      json.Field("io_ms", r.io_ms);
      json.Field("total_ms", r.total_ms);
      json.Field("qq_parses", r.qq_parses);
      json.Field("plan_cache_hits", r.plan_cache_hits);
      json.Field("spt_delta_entries", r.spt_delta_entries);
      json.EndObject();

      if (c == 0) {
        baseline = r;
        continue;
      }
      // Correctness: every optimized run is byte-identical to baseline.
      if (r.rows != baseline.rows) {
        std::printf("CHECK FAILED: %s result table differs from baseline "
                    "at %d snapshots\n", config.name, count);
        checks_ok = false;
      }
      const bool fast = config.profile == RqlProfile::kFast;
      if (fast && r.qq_parses != 1) {
        std::printf("CHECK FAILED: %s parsed Qq %lld times (want 1)\n",
                    config.name, static_cast<long long>(r.qq_parses));
        checks_ok = false;
      }
      // Acceptance ratios at the largest set: >= 2x fewer Maplog pages
      // with the incremental SPT, >= 10x fewer parses with plan reuse.
      if (count == 100 && fast &&
          r.maplog_pages * 2 > baseline.maplog_pages) {
        std::printf("CHECK FAILED: %s maplog pages %lld vs baseline %lld "
                    "(< 2x reduction)\n", config.name,
                    static_cast<long long>(r.maplog_pages),
                    static_cast<long long>(baseline.maplog_pages));
        checks_ok = false;
      }
      if (count == 100 && fast &&
          r.qq_parses * 10 > baseline.qq_parses) {
        std::printf("CHECK FAILED: %s parses %lld vs baseline %lld "
                    "(< 10x reduction)\n", config.name,
                    static_cast<long long>(r.qq_parses),
                    static_cast<long long>(baseline.qq_parses));
        checks_ok = false;
      }
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf("\nExpected: identical result tables in every config; at 100 "
              "snapshots the\nfast profile's incremental SPT cuts cumulative "
              "Maplog pages >= 2x (one suffix\nscan plus inter-mark deltas "
              "instead of a scan per snapshot), its plan reuse cuts\nQq "
              "parse/plan invocations %dx -> 1.\n", 100);
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
