// Background prefetch pipeline: overlapping archive I/O with Qq compute.
//
// A sequential retrospective run alternates between fetching the archived
// pages iteration i needs and evaluating Qq over them. With
// RqlOptions::async_prefetch the engine issues the reads for iteration
// i+1 (delta head + residual tail, derived from the SPT mapping) while
// iteration i computes, so a latency-bound run approaches
// max(compute, fetch) per iteration instead of their sum.
//
// The bench makes the run latency-bound on purpose: simulated archive
// latency with a single fetch slot (the paper's remote-archive regime,
// Section 6.3), calibrated so the per-iteration fetch time is ~90% of the
// measured compute time — the regime where pipelining helps most and the
// ideal speedup is ~1.9x. Five runs on UW15:
//
//   oracle  all flags off, no latency: byte-identity reference,
//   calib   sync batch_pagelog_reads, no latency: per-iteration compute E,
//   trial   sync with a probe latency: measures effective per-iteration
//           fetch cost (sleep granularity included), yielding the
//           calibrated latency,
//   sync    sync batch_pagelog_reads under calibrated latency + 1 slot,
//   async   same + async_prefetch.
//
// Every run starts page-cold except snapshot 1's pages, which are warmed
// latency-free first so the one-off residual sweep of the first iteration
// (identical in sync and async) does not dilute the pipelining signal.
//
// Self-checks (CI gates): sync and async result tables byte-identical to
// the oracle, the async run serves prefetched pages (hits > 0), and async
// is >= 1.5x faster than sync by wall clock. Results go to
// BENCH_pipeline.json (CI artifact).

#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "retro/snapshot_store.h"

namespace rql::bench {
namespace {

constexpr int kSnapshots = 24;

struct RunConfig {
  bool batch = false;
  bool async = false;
  int64_t latency_us = 0;
};

struct RunResult {
  double wall_ms = 0;
  double steady_ms = 0;  // sum of per-iteration totals, cold one excluded
  int64_t iterations = 0;
  int64_t pagelog_pages = 0;
  int64_t prefetch_issued = 0;
  int64_t prefetch_hits = 0;
  int64_t prefetch_wasted = 0;
  int64_t prefetch_cancelled = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

RunResult RunOnce(tpch::History* history, const std::string& qs,
                  const std::string& warm_qs, const std::string& qq,
                  const RunConfig& cfg) {
  retro::SnapshotStore* store = history->data()->store();
  RqlEngine* engine = history->engine();

  // Page-cold except snapshot 1: warm its pages latency-free so the first
  // iteration's residual sweep (unpipelineable, identical in every
  // configuration) does not dominate the measured interval. The warm run
  // batches, so the whole residual is warmed, not just Qq's footprint.
  // RqlCachePolicy::kColdPerRun (a paper-faithful default) would wipe the
  // pool at every run begin — cache control here is the explicit clear
  // below.
  store->ClearSnapshotCache();
  store->set_simulated_archive_latency_us(0);
  store->set_simulated_archive_fetch_slots(0);
  RqlOptions* opt = engine->mutable_options();
  opt->cache_policy = RqlCachePolicy::kWarm;
  opt->batch_pagelog_reads = true;
  opt->async_prefetch = false;
  BENCH_CHECK(engine->CollateData(warm_qs, qq, "PipelineWarm"));

  opt->batch_pagelog_reads = cfg.batch;
  opt->async_prefetch = cfg.async;
  opt->prefetch_budget_pages = 1024;
  store->set_simulated_archive_latency_us(cfg.latency_us);
  store->set_simulated_archive_fetch_slots(cfg.latency_us > 0 ? 1 : 0);

  Stopwatch sw;
  BENCH_CHECK(engine->CollateData(qs, qq, "Pipeline"));
  RunResult r;
  r.wall_ms = sw.ElapsedSeconds() * 1000.0;

  store->set_simulated_archive_latency_us(0);
  store->set_simulated_archive_fetch_slots(0);
  opt->batch_pagelog_reads = false;
  opt->async_prefetch = false;
  opt->cache_policy = RqlCachePolicy::kColdPerRun;

  const RqlRunStats& stats = engine->last_run_stats();
  r.iterations = static_cast<int64_t>(stats.iterations.size());
  for (size_t i = 0; i < stats.iterations.size(); ++i) {
    const RqlIterationStats& it = stats.iterations[i];
    if (i > 0) r.steady_ms += it.TotalUs() / 1000.0;
    r.pagelog_pages += it.pagelog_pages + it.batched_pagelog_reads;
    r.prefetch_issued += it.prefetch_issued;
    r.prefetch_hits += it.prefetch_hits;
    r.prefetch_wasted += it.prefetch_wasted;
    r.prefetch_cancelled += it.prefetch_cancelled;
  }
  auto rows = history->meta()->Query("SELECT * FROM Pipeline");
  if (!rows.ok()) Fail(rows.status(), "dump Pipeline");
  for (const sql::Row& row : rows->rows) {
    r.rows.push_back(sql::EncodeRow(row));
  }
  return r;
}

void WriteRunJson(JsonWriter* json, const char* key, const RunResult& r,
                  int64_t latency_us) {
  json->BeginObject(key);
  json->Field("wall_ms", r.wall_ms);
  json->Field("steady_ms", r.steady_ms);
  json->Field("iterations", r.iterations);
  json->Field("latency_us", latency_us);
  json->Field("pagelog_pages", r.pagelog_pages);
  json->Field("prefetch_issued", r.prefetch_issued);
  json->Field("prefetch_hits", r.prefetch_hits);
  json->Field("prefetch_wasted", r.prefetch_wasted);
  json->Field("prefetch_cancelled", r.prefetch_cancelled);
  json->EndObject();
}

int Run() {
  auto uw15 = GetHistory("uw15_small");
  if (!uw15.ok()) Fail(uw15.status(), "uw15_small history");
  tpch::History* history = uw15->get();

  const std::string qs = history->QsInterval(1, kSnapshots);
  const std::string warm_qs = history->QsInterval(1, 1);
  // The batched sweep fetches the whole per-snapshot delta (~all churned
  // tables), and the simulated fetch cannot cost less than the platform's
  // sleep granularity (~100us+), so the per-iteration fetch phase has a
  // hard floor of delta-pages x granularity. Qq must out-compute that
  // floor or nothing can hide behind it: a multi-aggregate pass over
  // lineitem — the bulk of the churned pages — is heavy enough, and its
  // footprint matches what the planners fetch.
  const std::string qq =
      "SELECT l_linenumber, COUNT(*) AS cn, SUM(l_quantity) AS sq, "
      "SUM(l_extendedprice) AS se, AVG(l_extendedprice) AS ae "
      "FROM lineitem GROUP BY l_linenumber";

  std::printf("Prefetch pipelining: CollateData(Qs_%d adjacent, lineitem "
              "aggregate), UW15, simulated archive latency, 1 fetch "
              "slot\n\n", kSnapshots);

  // Reference + calibration, both latency-free.
  RunResult oracle = RunOnce(history, qs, warm_qs, qq, {});
  RunConfig sync_cfg;
  sync_cfg.batch = true;
  RunResult calib = RunOnce(history, qs, warm_qs, qq, sync_cfg);

  const int64_t iters = std::max<int64_t>(calib.iterations, 1);
  const double compute_us = calib.wall_ms * 1000.0 / iters;

  // Calibrate the simulated latency so the run's total fetch time costs
  // ~75% of its total compute time. Wall clock, not per-iteration sums:
  // the batched sweep runs at snapshot-open time, outside the iteration
  // attribution. A probe run measures the *effective* per-run fetch cost
  // (the sleep has platform granularity well above small targets), then
  // one proportional correction lands close enough. 75% — not ~100%,
  // which maximizes the ideal ratio at 2x — leaves the pipeline
  // per-iteration headroom: the consuming iteration waits on any fetch
  // tail that outruns its compute window, so at parity scheduling jitter
  // turns directly into collect stalls. The ~1.75x ideal keeps a working
  // margin over the 1.5x gate.
  constexpr int64_t kProbeLatencyUs = 200;
  sync_cfg.latency_us = kProbeLatencyUs;
  RunResult trial = RunOnce(history, qs, warm_qs, qq, sync_cfg);
  const double fetch_ms = std::max(trial.wall_ms - calib.wall_ms, 1.0);
  // Affine cost model: each fetch pays the simulated latency plus a
  // constant per-page overhead (sleep granularity, slot handoff), so the
  // probe measurement extrapolates by slope pages-per-run, not
  // proportionally — a ratio correction would credit the overhead to the
  // latency term and overshoot.
  const double pages_per_run = std::max<double>(
      static_cast<double>(calib.pagelog_pages), 1.0);
  int64_t latency_us =
      kProbeLatencyUs +
      static_cast<int64_t>((0.75 * calib.wall_ms - fetch_ms) * 1000.0 /
                           pages_per_run);
  latency_us = std::min<int64_t>(std::max<int64_t>(latency_us, 50), 20000);

  std::printf("calibration: compute %.2f ms/iter (%.2f ms total), probe "
              "fetch %.2f ms total at %lld us -> latency %lld us\n\n",
              compute_us / 1000.0, calib.wall_ms, fetch_ms,
              static_cast<long long>(kProbeLatencyUs),
              static_cast<long long>(latency_us));

  sync_cfg.latency_us = latency_us;
  RunResult sync = RunOnce(history, qs, warm_qs, qq, sync_cfg);
  RunConfig async_cfg = sync_cfg;
  async_cfg.async = true;
  RunResult async = RunOnce(history, qs, warm_qs, qq, async_cfg);

  const double speedup = async.wall_ms > 0 ? sync.wall_ms / async.wall_ms : 0;
  const double steady_speedup =
      async.steady_ms > 0 ? sync.steady_ms / async.steady_ms : 0;

  std::printf("%-8s %9s %10s %8s %8s %8s %8s %8s\n", "run", "wall_ms",
              "steady_ms", "plogpg", "issued", "hits", "wasted", "cancel");
  auto print_row = [](const char* label, const RunResult& r) {
    std::printf("%-8s %9.2f %10.2f %8lld %8lld %8lld %8lld %8lld\n", label,
                r.wall_ms, r.steady_ms,
                static_cast<long long>(r.pagelog_pages),
                static_cast<long long>(r.prefetch_issued),
                static_cast<long long>(r.prefetch_hits),
                static_cast<long long>(r.prefetch_wasted),
                static_cast<long long>(r.prefetch_cancelled));
  };
  print_row("oracle", oracle);
  print_row("calib", calib);
  print_row("trial", trial);
  print_row("sync", sync);
  print_row("async", async);
  std::printf("\nasync speedup over sync: %.2fx wall (%.2fx steady-state)\n",
              speedup, steady_speedup);

  bool checks_ok = true;
  if (calib.pagelog_pages < calib.iterations) {
    std::printf("CHECK FAILED: too few archived pages fetched (%lld over "
                "%lld iterations) to exercise the pipeline\n",
                static_cast<long long>(calib.pagelog_pages),
                static_cast<long long>(calib.iterations));
    checks_ok = false;
  }
  if (sync.rows != oracle.rows) {
    std::printf("CHECK FAILED: sync result table differs from the "
                "flags-off oracle\n");
    checks_ok = false;
  }
  if (async.rows != oracle.rows) {
    std::printf("CHECK FAILED: async-prefetch result table differs from "
                "the flags-off oracle\n");
    checks_ok = false;
  }
  if (async.prefetch_issued <= 0 || async.prefetch_hits <= 0) {
    std::printf("CHECK FAILED: async run issued %lld prefetches with %lld "
                "hits; the pipeline never engaged\n",
                static_cast<long long>(async.prefetch_issued),
                static_cast<long long>(async.prefetch_hits));
    checks_ok = false;
  }
  if (async.prefetch_hits + async.prefetch_wasted > async.prefetch_issued) {
    std::printf("CHECK FAILED: prefetch accounting (hits %lld + wasted "
                "%lld > issued %lld)\n",
                static_cast<long long>(async.prefetch_hits),
                static_cast<long long>(async.prefetch_wasted),
                static_cast<long long>(async.prefetch_issued));
    checks_ok = false;
  }
  if (speedup < 1.5) {
    std::printf("CHECK FAILED: async %.2fms vs sync %.2fms "
                "(%.2fx < 1.5x)\n", async.wall_ms, sync.wall_ms, speedup);
    checks_ok = false;
  }

  JsonWriter json("BENCH_pipeline.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("snapshots", kSnapshots);
  json.Field("calibrated_latency_us", latency_us);
  json.Field("fetch_slots", 1);
  json.Field("compute_us_per_iter", compute_us, 1);
  WriteRunJson(&json, "oracle", oracle, 0);
  WriteRunJson(&json, "calib", calib, 0);
  WriteRunJson(&json, "trial", trial, kProbeLatencyUs);
  WriteRunJson(&json, "sync", sync, latency_us);
  WriteRunJson(&json, "async", async, latency_us);
  json.Field("speedup", speedup, 2);
  json.Field("steady_speedup", steady_speedup, 2);
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf("\nExpected: identical result tables in oracle, sync and "
              "async runs; the async\nrun overlaps next-iteration archive "
              "fetches with Qq compute and finishes\n>= 1.5x faster under "
              "latency-bound I/O.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
