// Store-scoped shared scan cache: concurrent RQL runs over one store.
//
// Four clients — each its own sql::Database handle Attach()ed to ONE
// SnapshotStore, its own metadata database and its own RqlEngine — run
// CollateData over heavily overlapping 40-snapshot intervals (staggered
// starts 1, 5, 9, 13; odd clients sweep descending so independent runs
// do not walk the history in lockstep), concurrently on four threads.
// The store simulates a bandwidth-limited cold archive — per-fetch
// latency plus a single fetch slot, so concurrent reads queue — and
// keeps a deliberately small snapshot page cache, so every decoded-page
// re-read the caching layer fails to absorb costs a real archive round
// trip. Three configurations:
//
//   oracle   each client sequentially, flag-off defaults, no simulated
//            latency: the byte-identity reference.
//   private  concurrent, one run-scoped SharedScanCache per client.
//            Overlapping clients decode every shared page version once
//            PER CLIENT — up to 4x duplicated fetch + decode work.
//   shared   concurrent, one sql::SharedScanCache attached to all four
//            engines: cross-run hits, per-version single-flight decode,
//            and coalesced SPT builds in the store.
//
// Self-checks (CI gates):
//   * every unique page version is decoded exactly once in the shared
//     config (cache inserts == resident entries, no evictions, no
//     abandoned decodes);
//   * coalesced_decodes > 0 — concurrent runs actually blocked on each
//     other's in-flight decodes instead of duplicating them;
//   * per-iteration attribution is exact: client-summed hits / misses /
//     coalesced equal the cache's own global counters;
//   * aggregate throughput of the shared config is >= 2x the private
//     config under the same latency;
//   * both concurrent configs' result tables are byte-identical to the
//     sequential flag-off oracle, per client.
//
// Results go to BENCH_concurrent.json (CI artifact).

#include "bench_common.h"

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "sql/shared_scan_cache.h"
#include "storage/env.h"

namespace rql::bench {
namespace {

constexpr int kClients = 4;
constexpr int kSnapshotsPerClient = 40;
/// Client i's interval starts at 1 + i*kStagger: consecutive clients
/// share 36 of their 40 snapshots, so most page versions are common.
constexpr int kStagger = 4;
constexpr int64_t kArchiveLatencyUs = 2000;
/// Far below the per-client working set, so a version evicted between
/// two clients' visits pays the archive latency again unless the shared
/// cache (which pins entries independently of the pool) serves it.
constexpr uint64_t kSnapshotCachePages = 32;
constexpr char kResultTable[] = "ConcOut";
/// Computationally trivial on purpose: per-iteration evaluation cost is
/// paid identically with or without the shared cache, so the query keeps
/// it minimal and the measurement isolates what the cache actually
/// shares — archive fetches, page decodes and SPT builds.
constexpr char kQqCount[] = "SELECT COUNT(*) FROM orders";

struct Client {
  std::unique_ptr<storage::InMemoryEnv> meta_env;
  std::unique_ptr<sql::Database> meta;
  std::unique_ptr<sql::Database> data;
  std::unique_ptr<RqlEngine> engine;
  std::string qs;
  // Harvested after each run.
  double wall_ms = 0;
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t coalesced = 0;
  std::vector<std::string> rows;  // encoded result table, in table order
};

/// Builds kClients independent engines over `history`'s data store. Each
/// gets a private in-memory metadata database seeded with the SnapIds
/// rows its Qs needs — the paper's architecture, one application client
/// at a time.
std::vector<Client> MakeClients(tpch::History* history,
                                const RqlOptions& base) {
  std::vector<Client> clients(kClients);
  for (int i = 0; i < kClients; ++i) {
    Client& c = clients[i];
    c.meta_env = std::make_unique<storage::InMemoryEnv>();
    auto meta = sql::Database::Open(c.meta_env.get(), "meta");
    if (!meta.ok()) Fail(meta.status(), "open client meta db");
    c.meta = std::move(*meta);
    auto data = sql::Database::Attach(history->data()->store());
    if (!data.ok()) Fail(data.status(), "attach client data db");
    c.data = std::move(*data);
    c.engine = std::make_unique<RqlEngine>(c.data.get(), c.meta.get(), base);
    BENCH_CHECK(c.engine->EnsureSnapIds());
    for (retro::SnapshotId s = 1; s <= history->last_snapshot(); ++s) {
      auto row = c.meta->AppendRow(
          "SnapIds", {sql::Value::Integer(s), sql::Value::Text("snap"),
                      sql::Value::Text("")});
      if (!row.ok()) Fail(row.status(), "populate client SnapIds");
    }
    c.qs = history->QsInterval(1 + i * kStagger, kSnapshotsPerClient);
    // Odd clients sweep their interval in descending order. Independent
    // clients are not synchronized in practice; lockstep ascending sweeps
    // would let even a tiny page cache serve every cross-client re-read,
    // hiding exactly the duplication this bench measures.
    if (i % 2 == 1) c.qs += " DESC";  // QsInterval ends in ORDER BY snap_id
  }
  return clients;
}

void RunOne(Client* c) {
  Stopwatch sw;
  BENCH_CHECK(c->engine->CollateData(c->qs, kQqCount, kResultTable));
  c->wall_ms = sw.ElapsedSeconds() * 1000.0;
  const RqlRunStats& stats = c->engine->last_run_stats();
  c->hits = stats.shared_page_hits;
  c->misses = stats.scan_cache_misses;
  c->coalesced = stats.coalesced_decodes;
  auto rows = c->meta->Query(std::string("SELECT * FROM ") + kResultTable);
  if (!rows.ok()) Fail(rows.status(), "dump result table");
  c->rows.clear();
  for (const sql::Row& row : rows->rows) {
    c->rows.push_back(sql::EncodeRow(row));
  }
}

/// Runs every client on its own thread; returns aggregate wall ms.
double RunConcurrent(std::vector<Client>* clients) {
  Stopwatch sw;
  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (Client& c : *clients) {
    threads.emplace_back([&c] { RunOne(&c); });
  }
  for (std::thread& t : threads) t.join();
  return sw.ElapsedSeconds() * 1000.0;
}

void WriteConfigJson(JsonWriter* json, const char* key,
                     const std::vector<Client>& clients, double wall_ms) {
  json->BeginObject(key);
  json->Field("wall_ms", wall_ms);
  json->BeginArray("clients");
  for (const Client& c : clients) {
    json->BeginObject();
    json->Field("wall_ms", c.wall_ms);
    json->Field("scan_cache_hits", c.hits);
    json->Field("scan_cache_misses", c.misses);
    json->Field("coalesced_decodes", c.coalesced);
    json->Field("result_rows", static_cast<int64_t>(c.rows.size()));
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

int Run() {
  auto uw15 = GetHistory("uw15_small");
  if (!uw15.ok()) Fail(uw15.status(), "uw15_small history");
  tpch::History* history = uw15->get();
  retro::SnapshotStore* store = history->data()->store();

  std::printf("Shared scan cache: %d concurrent CollateData(Qq_io) runs, "
              "%d overlapping snapshots each, UW15\n\n",
              kClients, kSnapshotsPerClient);

  // Oracle: sequential, flag-off, no simulated latency. Defines the
  // byte-identity reference per client.
  RqlOptions oracle_opts;
  std::vector<Client> oracle = MakeClients(history, oracle_opts);
  for (Client& c : oracle) RunOne(&c);

  // Both concurrent configs run under identical store conditions: cold
  // page cache, simulated archive latency, a page cache far smaller than
  // the working set. The cache policy is kWarm: kColdPerRun clears the
  // shared store cache, which concurrent runs must not do to each other.
  store->set_simulated_archive_latency_us(kArchiveLatencyUs);
  store->set_simulated_archive_fetch_slots(1);
  store->snapshot_cache()->set_capacity(kSnapshotCachePages);

  // Both concurrent configs run the fast profile: page-at-a-time
  // evaluation and one Qq plan per run keep per-iteration CPU small
  // relative to archive I/O, which is the regime the shared cache
  // targets.
  RqlOptions private_opts;
  private_opts.cache_policy = RqlCachePolicy::kWarm;
  private_opts.profile = RqlProfile::kFast;
  std::vector<Client> priv = MakeClients(history, private_opts);
  std::vector<std::unique_ptr<sql::SharedScanCache>> private_caches;
  for (Client& c : priv) {
    private_caches.push_back(std::make_unique<sql::SharedScanCache>(
        sql::SharedScanCache::Options{.max_bytes = 0}));
    c.engine->mutable_options()->shared_scan_cache =
        private_caches.back().get();
  }
  store->ClearSnapshotCache();
  const double wall_private = RunConcurrent(&priv);

  sql::SharedScanCache cache;
  RqlOptions shared_opts;
  shared_opts.cache_policy = RqlCachePolicy::kWarm;
  shared_opts.shared_scan_cache = &cache;
  shared_opts.profile = RqlProfile::kFast;
  std::vector<Client> shared = MakeClients(history, shared_opts);
  store->ClearSnapshotCache();
  const int64_t spt_shared_before = store->shared_spt_builds_total();
  const double wall_shared = RunConcurrent(&shared);
  const int64_t spt_shared =
      store->shared_spt_builds_total() - spt_shared_before;

  store->set_simulated_archive_latency_us(0);
  store->set_simulated_archive_fetch_slots(0);
  const sql::SharedScanCache::Stats cs = cache.GetStats();

  int64_t sum_hits = 0;
  int64_t sum_misses = 0;
  int64_t sum_coalesced = 0;
  for (const Client& c : shared) {
    sum_hits += c.hits;
    sum_misses += c.misses;
    sum_coalesced += c.coalesced;
  }
  const double speedup = wall_shared > 0 ? wall_private / wall_shared : 0;

  std::printf("%-10s %10s %10s %10s %10s\n", "config", "wall_ms", "hits",
              "misses", "coalesced");
  auto print_config = [](const char* name, double wall_ms,
                         const std::vector<Client>& clients) {
    int64_t h = 0, m = 0, co = 0;
    for (const Client& c : clients) {
      h += c.hits;
      m += c.misses;
      co += c.coalesced;
    }
    std::printf("%-10s %10.2f %10lld %10lld %10lld\n", name, wall_ms,
                static_cast<long long>(h), static_cast<long long>(m),
                static_cast<long long>(co));
  };
  print_config("private", wall_private, priv);
  print_config("shared", wall_shared, shared);
  std::printf("\nshared-config speedup over private: %.1fx; cache: "
              "%llu entries, %llu bytes, %lld inserts, %lld evictions, "
              "%lld coalesced; %lld SPT builds shared\n",
              speedup, static_cast<unsigned long long>(cs.entries),
              static_cast<unsigned long long>(cs.bytes),
              static_cast<long long>(cs.inserts),
              static_cast<long long>(cs.evictions),
              static_cast<long long>(cs.coalesced_decodes),
              static_cast<long long>(spt_shared));

  bool checks_ok = true;
  for (int i = 0; i < kClients; ++i) {
    if (priv[i].rows != oracle[i].rows) {
      std::printf("CHECK FAILED: private-cache client %d result table "
                  "differs from the sequential oracle\n", i);
      checks_ok = false;
    }
    if (shared[i].rows != oracle[i].rows) {
      std::printf("CHECK FAILED: shared-cache client %d result table "
                  "differs from the sequential oracle\n", i);
      checks_ok = false;
    }
  }
  if (cs.inserts != static_cast<int64_t>(cs.entries) || cs.evictions != 0 ||
      cs.abandoned_decodes != 0) {
    std::printf("CHECK FAILED: expected every unique version decoded once "
                "(inserts=%lld entries=%llu evictions=%lld abandoned=%lld)\n",
                static_cast<long long>(cs.inserts),
                static_cast<unsigned long long>(cs.entries),
                static_cast<long long>(cs.evictions),
                static_cast<long long>(cs.abandoned_decodes));
    checks_ok = false;
  }
  if (cs.coalesced_decodes <= 0) {
    std::printf("CHECK FAILED: no coalesced decodes — concurrent runs "
                "never waited on each other's in-flight decode\n");
    checks_ok = false;
  }
  if (sum_hits != cs.shared_hits || sum_misses != cs.misses ||
      sum_coalesced != cs.coalesced_decodes) {
    std::printf("CHECK FAILED: per-iteration attribution drifted from the "
                "cache's global counters (clients %lld/%lld/%lld vs cache "
                "%lld/%lld/%lld)\n", static_cast<long long>(sum_hits),
                static_cast<long long>(sum_misses),
                static_cast<long long>(sum_coalesced),
                static_cast<long long>(cs.shared_hits),
                static_cast<long long>(cs.misses),
                static_cast<long long>(cs.coalesced_decodes));
    checks_ok = false;
  }
  if (wall_shared * 2 > wall_private) {
    std::printf("CHECK FAILED: shared %.2fms vs private %.2fms "
                "(< 2x aggregate throughput)\n", wall_shared, wall_private);
    checks_ok = false;
  }

  JsonWriter json("BENCH_concurrent.json");
  json.BeginObject();
  json.Field("sf", Sf(), 4);
  json.Field("clients", kClients);
  json.Field("snapshots_per_client", kSnapshotsPerClient);
  json.Field("archive_latency_us", kArchiveLatencyUs);
  json.Field("snapshot_cache_pages",
             static_cast<int64_t>(kSnapshotCachePages));
  WriteConfigJson(&json, "private", priv, wall_private);
  WriteConfigJson(&json, "shared", shared, wall_shared);
  json.BeginObject("shared_cache");
  json.Field("entries", static_cast<int64_t>(cs.entries));
  json.Field("bytes", static_cast<int64_t>(cs.bytes));
  json.Field("shared_hits", cs.shared_hits);
  json.Field("misses", cs.misses);
  json.Field("coalesced_decodes", cs.coalesced_decodes);
  json.Field("inserts", cs.inserts);
  json.Field("evictions", cs.evictions);
  json.Field("abandoned_decodes", cs.abandoned_decodes);
  json.EndObject();
  json.Field("shared_spt_builds", spt_shared);
  json.Field("shared_speedup_over_private", speedup, 2);
  json.Field("checks_ok", checks_ok);
  json.EndObject();
  json.Close();

  std::printf("\nExpected: byte-identical result tables in every config; "
              "the shared config\ndecodes each unique page version once "
              "across all four runs, coalesces racing\ndecodes, and "
              "finishes >= 2x faster in aggregate than run-private "
              "caches.\n");
  std::printf("checks: %s\n", checks_ok ? "OK" : "FAILED");
  return checks_ok ? 0 : 1;
}

}  // namespace
}  // namespace rql::bench

int main() { return rql::bench::Run(); }
