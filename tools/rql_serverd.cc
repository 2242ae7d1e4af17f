// rql_serverd: the RQL daemon. Serves one snapshot store over a Unix
// domain socket (the server/wire.h protocol); every connection gets a
// session (attached handle + private metadata database + engine), RQL
// runs go through the admission-controlled scheduler, and concurrent
// sessions share the store's caches — coalesced SPT builds, single-
// flight SharedScanCache decodes — exactly like in-process concurrent
// engines do. Runs execute the fast profile (RqlProfile::kFast:
// incremental SPT, one Qq plan per run, vectorized scans) over a warm
// store-wide cache; see ServerOptions::engine.
//
// Usage:
//   rql_serverd --socket PATH [options]
//
// Options:
//   --socket PATH          Unix socket to listen on (required)
//   --store PREFIX         persistent databases <PREFIX>_data/_meta
//                          (in-memory scratch store when omitted)
//   --seed-demo            create a small demo history (table `kv`,
//                          8 snapshots) so clients have data to query
//   --max-sessions N       concurrent session cap        (default 32)
//   --dispatch N           concurrent runs               (default 2)
//   --queue-limit N        pending-run admission bound   (default 16)
//   --workers N            shared parallel-worker budget (default 4)
//   --idle-timeout-ms N    disconnect idle sessions      (default off)
//
// The daemon exits on SIGINT/SIGTERM after a clean Stop(): sessions are
// disconnected, their runs cancelled and drained, the socket unlinked.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "server/server.h"
#include "storage/env.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--store PREFIX] [--seed-demo]\n"
               "          [--max-sessions N] [--dispatch N] "
               "[--queue-limit N]\n"
               "          [--workers N] [--idle-timeout-ms N]\n",
               argv0);
  return 2;
}

/// A tiny history for smoke tests: table kv(k, v), 8 snapshots, each
/// bumping v on a sliding subset of keys. Written before the server opens
/// the databases, which it then serves as it finds them.
rql::Status SeedDemo(rql::storage::Env* env, const std::string& prefix) {
  RQL_ASSIGN_OR_RETURN(auto data,
                       rql::sql::Database::Open(env, prefix + "_data"));
  RQL_ASSIGN_OR_RETURN(auto meta,
                       rql::sql::Database::Open(env, prefix + "_meta"));
  RQL_RETURN_IF_ERROR(
      data->Exec("CREATE TABLE IF NOT EXISTS kv (k INTEGER, v INTEGER)"));
  for (int k = 0; k < 100; ++k) {
    RQL_RETURN_IF_ERROR(data->Exec("INSERT INTO kv VALUES (" +
                                   std::to_string(k) + ", 0)"));
  }
  rql::RqlEngine engine(data.get(), meta.get());
  RQL_RETURN_IF_ERROR(engine.EnsureSnapIds());
  for (int s = 0; s < 8; ++s) {
    RQL_RETURN_IF_ERROR(data->Exec("UPDATE kv SET v = v + 1 WHERE k % 7 = " +
                                   std::to_string(s % 7)));
    RQL_RETURN_IF_ERROR(
        engine.CommitWithSnapshot("", "demo-" + std::to_string(s)).status());
  }
  return rql::Status::OK();
}

}  // namespace

int main(int argc, char** argv) {
  rql::server::ServerOptions options;
  std::string store_prefix;
  bool seed_demo = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--socket") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.socket_path = v;
    } else if (arg == "--store") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      store_prefix = v;
    } else if (arg == "--seed-demo") {
      seed_demo = true;
    } else if (arg == "--max-sessions") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.max_sessions = std::atoi(v);
    } else if (arg == "--dispatch") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.scheduler.dispatch_threads = std::atoi(v);
    } else if (arg == "--queue-limit") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.scheduler.queue_limit = std::atoi(v);
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.scheduler.worker_budget = std::atoi(v);
    } else if (arg == "--idle-timeout-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      options.idle_timeout_us = std::atoll(v) * 1000;
    } else {
      return Usage(argv[0]);
    }
  }
  if (options.socket_path.empty()) return Usage(argv[0]);

  rql::storage::InMemoryEnv mem_env;
  rql::storage::PosixEnv posix_env;
  rql::storage::Env* env = &mem_env;
  std::string prefix = "serverd";
  if (!store_prefix.empty()) {
    env = &posix_env;
    prefix = store_prefix;
  }

  if (seed_demo) {
    rql::Status st = SeedDemo(env, prefix);
    if (!st.ok()) {
      std::fprintf(stderr, "cannot seed demo data: %s\n",
                   st.ToString().c_str());
      return 1;
    }
  }
  auto server = rql::server::Server::Open(env, prefix, options);
  if (!server.ok()) {
    std::fprintf(stderr, "cannot open store: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  rql::Status st = (*server)->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "cannot start server: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("rql_serverd listening on %s (%s store '%s')\n",
              options.socket_path.c_str(),
              store_prefix.empty() ? "in-memory" : "persistent",
              prefix.c_str());
  std::fflush(stdout);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("shutting down\n");
  (*server)->Stop();
  return 0;
}
