// Interactive shell for the RQL database: a sqlite3-style REPL with the
// Retro snapshot extensions and the RQL mechanisms available both as C++
// driven dot-commands and as the paper's UDF-embedded SQL form.
//
// The REPL core (statement buffering, dot commands, table rendering)
// lives in src/server/repl.h and runs against either backend:
//
//   rql_shell [path-prefix]       embedded: persistent databases
//                                 <prefix>_data.* / <prefix>_meta.*
//                                 (in-memory when omitted)
//   rql_shell --connect SOCKET    socket client of rql_serverd
//
// Client-mode extras:
//   --pull-stats                  print the server's kStats JSON and exit
//                                 (CI smoke checks pipe this into
//                                 tools/check_server_json.py)
//   --run MECH QS QQ TABLE        submit one scheduled RQL run, wait for
//                                 its completion and print the summary
//                                 (MECH: collate | aggvar | aggtable |
//                                 intervals; aggvar reads the aggregate
//                                 function from --extra). The printed ms
//                                 is the daemon's measured wall time for
//                                 the run (kRunDone total_us).
//   --extra ARG                   mechanism extra argument
//   --workers N                   parallel workers to request

#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>

#include "server/client.h"
#include "server/repl.h"
#include "server/server.h"
#include "sql/database.h"
#include "storage/env.h"

namespace {

using rql::server::Client;
using rql::server::Mechanism;

int Usage() {
  std::fprintf(stderr,
               "usage: rql_shell [path-prefix]\n"
               "       rql_shell --connect SOCKET [--pull-stats]\n"
               "       rql_shell --connect SOCKET --run MECH QS QQ TABLE\n"
               "                 [--extra ARG] [--workers N]\n");
  return 2;
}

int RunEmbedded(const std::string& prefix, bool persistent) {
  rql::storage::InMemoryEnv mem_env;
  rql::storage::PosixEnv posix_env;
  rql::storage::Env* env = persistent
                               ? static_cast<rql::storage::Env*>(&posix_env)
                               : &mem_env;
  auto data = rql::sql::Database::Open(env, prefix + "_data");
  auto meta = rql::sql::Database::Open(env, prefix + "_meta");
  if (!data.ok() || !meta.ok()) {
    std::fprintf(stderr, "cannot open databases: %s\n",
                 (!data.ok() ? data.status() : meta.status())
                     .ToString()
                     .c_str());
    return 1;
  }
  rql::RqlEngine engine(data->get(), meta->get());
  if (!engine.EnsureSnapIds().ok() || !engine.RegisterUdfs().ok()) {
    std::fprintf(stderr, "cannot initialize RQL\n");
    return 1;
  }
  rql::server::EmbeddedBackend backend(
      data->get(), meta->get(), &engine,
      std::string("rql shell — ") + (persistent ? "persistent" : "in-memory") +
          " databases '" + prefix + "_*'");
  return rql::server::RunRepl(std::cin, std::cout, &backend, true);
}

int RunOnce(Client* client, const std::string& mech_name,
            const std::string& qs, const std::string& qq,
            const std::string& table, const std::string& extra,
            int workers) {
  Mechanism mech;
  if (mech_name == "collate") {
    mech = Mechanism::kCollateData;
  } else if (mech_name == "aggvar") {
    mech = Mechanism::kAggregateDataInVariable;
  } else if (mech_name == "aggtable") {
    mech = Mechanism::kAggregateDataInTable;
  } else if (mech_name == "intervals") {
    mech = Mechanism::kCollateDataIntoIntervals;
  } else {
    std::fprintf(stderr, "unknown mechanism '%s'\n", mech_name.c_str());
    return 2;
  }
  auto run_id = client->StartRun(mech, qs, qq, table, extra, workers);
  if (!run_id.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 run_id.status().ToString().c_str());
    return 1;
  }
  auto done = client->WaitRun(*run_id);
  if (!done.ok()) {
    std::fprintf(stderr, "wait failed: %s\n",
                 done.status().ToString().c_str());
    return 1;
  }
  if (!done->status.ok()) {
    std::fprintf(stderr, "run %llu failed: %s\n",
                 static_cast<unsigned long long>(*run_id),
                 done->status.ToString().c_str());
    return 1;
  }
  std::printf("run %llu ok: %u iterations, %.2f ms, "
              "%lld shared page hits, %lld coalesced decodes, "
              "%lld skipped\n",
              static_cast<unsigned long long>(*run_id), done->iterations,
              done->total_us / 1000.0,
              static_cast<long long>(done->shared_page_hits),
              static_cast<long long>(done->coalesced_decodes),
              static_cast<long long>(done->iterations_skipped));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string prefix = "shell";
  bool persistent = false;
  bool pull_stats = false;
  std::string run_mech, run_qs, run_qq, run_table, run_extra;
  int workers = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--connect") {
      if (i + 1 >= argc) return Usage();
      socket_path = argv[++i];
    } else if (arg == "--pull-stats") {
      pull_stats = true;
    } else if (arg == "--run") {
      if (i + 4 >= argc) return Usage();
      run_mech = argv[++i];
      run_qs = argv[++i];
      run_qq = argv[++i];
      run_table = argv[++i];
    } else if (arg == "--extra") {
      if (i + 1 >= argc) return Usage();
      run_extra = argv[++i];
    } else if (arg == "--workers") {
      if (i + 1 >= argc) return Usage();
      workers = std::atoi(argv[++i]);
    } else if (arg[0] == '-') {
      return Usage();
    } else {
      prefix = arg;
      persistent = true;
    }
  }

  if (socket_path.empty()) {
    if (pull_stats || !run_mech.empty()) return Usage();
    return RunEmbedded(prefix, persistent);
  }

  auto client = Client::Connect(socket_path);
  if (!client.ok()) {
    std::fprintf(stderr, "cannot connect to %s: %s\n", socket_path.c_str(),
                 client.status().ToString().c_str());
    return 1;
  }
  if (pull_stats) {
    auto json = (*client)->StatsJson();
    if (!json.ok()) {
      std::fprintf(stderr, "stats pull failed: %s\n",
                   json.status().ToString().c_str());
      return 1;
    }
    std::fputs(json->c_str(), stdout);
    return 0;
  }
  if (!run_mech.empty()) {
    return RunOnce(client->get(), run_mech, run_qs, run_qq, run_table,
                   run_extra, workers);
  }
  rql::server::RemoteBackend backend(
      client->get(), "rql shell — connected to " + socket_path +
                         " (session " +
                         std::to_string((*client)->session_id()) + ")");
  return rql::server::RunRepl(std::cin, std::cout, &backend, true);
}
