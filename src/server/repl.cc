#include "server/repl.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

#include "sql/lexer.h"

namespace rql::server {

namespace {

std::string Pad(const std::string& s, size_t width) {
  std::string out = s;
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

}  // namespace

std::string FormatTable(const std::vector<std::string>& columns,
                        const std::vector<sql::Row>& rows) {
  // Widths are sized to the widest arity seen across header AND rows: a
  // row with more cells than the header (UDF results, ragged scripts)
  // must not index past the widths vector.
  size_t arity = columns.size();
  for (const sql::Row& row : rows) arity = std::max(arity, row.size());
  std::vector<size_t> widths(arity, 0);
  for (size_t c = 0; c < columns.size(); ++c) widths[c] = columns[c].size();
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const sql::Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      line.push_back(row[c].ToString());
      widths[c] = std::max(widths[c], line[c].size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream out;
  for (size_t c = 0; c < columns.size(); ++c) {
    out << Pad(columns[c], widths[c]) << "  ";
  }
  out << "\n";
  for (size_t c = 0; c < columns.size(); ++c) {
    out << std::string(widths[c], '-') << "  ";
  }
  out << "\n";
  for (const auto& line : cells) {
    for (size_t c = 0; c < line.size(); ++c) {
      out << Pad(line[c], widths[c]) << "  ";
    }
    out << "\n";
  }
  out << "(" << cells.size() << (cells.size() == 1 ? " row)" : " rows)")
      << "\n";
  return out.str();
}

std::string FormatRunStats(const RqlRunStats& stats) {
  if (stats.iterations.empty()) return "no RQL run recorded yet\n";
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-10s %8s %10s %10s %10s %8s\n",
                "snapshot", "plog_pg", "spt_us", "query_us", "udf_us",
                "rows");
  out << line;
  for (const RqlIterationStats& it : stats.iterations) {
    std::snprintf(line, sizeof(line),
                  "%-10u %8lld %10lld %10lld %10lld %8lld\n",
                  it.snapshot, static_cast<long long>(it.pagelog_pages),
                  static_cast<long long>(it.spt_build_us),
                  static_cast<long long>(it.query_eval_us),
                  static_cast<long long>(it.udf_us),
                  static_cast<long long>(it.qq_rows));
    out << line;
  }
  std::snprintf(line, sizeof(line), "total: %.2f ms over %zu iterations\n",
                stats.TotalUs() / 1000.0, stats.iterations.size());
  out << line;
  out << "qs: " << (stats.qs_reused ? "reused" : "evaluated")
      << ", result table: " << (stats.result_reused ? "kept" : "folded")
      << "\n";
  return out.str();
}

DotCommand ParseDotCommand(const std::string& line) {
  DotCommand cmd;
  size_t i = 0;
  while (i < line.size() &&
         !std::isspace(static_cast<unsigned char>(line[i]))) {
    ++i;
  }
  cmd.name = line.substr(0, i);
  // std::getline after `iss >> cmd` used to keep the separating space, so
  // ".snapshot mylabel" stored the label " mylabel"; trim both ends.
  cmd.arg = Trim(std::string_view(line).substr(i));
  return cmd;
}

bool StatementComplete(const std::string& buffer) {
  auto tokens = sql::Tokenize(buffer);
  if (!tokens.ok()) {
    // An open string literal, quoted identifier or block comment swallows
    // any ';' inside it: the statement is still being typed. Every other
    // lexical error is final — report complete so execution surfaces it.
    return tokens.status().message().find("unterminated") ==
           std::string::npos;
  }
  if (tokens->size() < 2) return false;  // blank or comment-only buffer
  return (*tokens)[tokens->size() - 2].IsOp(";");
}

// --- EmbeddedBackend --------------------------------------------------------

Result<sql::QueryResult> EmbeddedBackend::DataSql(const std::string& sql) {
  return data_->Query(sql);
}

Result<sql::QueryResult> EmbeddedBackend::MetaSql(const std::string& sql) {
  auto result = meta_->Query(sql);
  // The RQL UDFs may have been driven by this statement; finalize any
  // in-progress UDF-form runs exactly as the pre-extraction shell did.
  Status finish = engine_->FinishUdfRuns();
  if (result.ok() && !finish.ok()) return finish;
  return result;
}

Result<retro::SnapshotId> EmbeddedBackend::DeclareSnapshot(
    const std::string& label) {
  return engine_->CommitWithSnapshot("", label);
}

Result<sql::QueryResult> EmbeddedBackend::Snapshots() {
  return meta_->Query("SELECT * FROM SnapIds");
}

Result<sql::QueryResult> EmbeddedBackend::ListSchema(bool indexes) {
  sql::QueryResult out;
  if (indexes) {
    out.columns = {"index", "table"};
    for (const auto& [key, index] : data_->catalog()->data().indexes) {
      out.rows.push_back({sql::Value::Text(index.name),
                          sql::Value::Text(index.table)});
    }
  } else {
    out.columns = {"table", "schema"};
    for (const auto& [key, table] : data_->catalog()->data().tables) {
      out.rows.push_back({sql::Value::Text(table.name),
                          sql::Value::Text(table.schema.Serialize())});
    }
  }
  return out;
}

Result<std::string> EmbeddedBackend::RunStatsText() {
  return FormatRunStats(engine_->last_run_stats());
}

Result<retro::SnapshotId> EmbeddedBackend::Truncate(
    retro::SnapshotId keep_from) {
  RQL_RETURN_IF_ERROR(data_->store()->TruncateHistory(keep_from));
  return data_->store()->earliest_snapshot();
}

// --- the REPL loop ----------------------------------------------------------

namespace {

constexpr char kHelp[] = R"(commands:
  .help                 this text
  .tables / .indexes    list schema objects in the data database
  .snapshot [label]     declare a snapshot (COMMIT WITH SNAPSHOT)
  .snapshots            show SnapIds
  .meta <sql>           SQL on the metadata database (RQL UDFs live here,
                        e.g. SELECT CollateData(snap_id, 'SELECT ...', 'T')
                        FROM SnapIds;)
  .stats                cost breakdown of the last RQL run
  .truncate <keep>      drop snapshots with id < keep; compact the archive
  .quit                 exit
anything else: SQL on the data database (AS OF, COMMIT WITH SNAPSHOT, ...)
)";

void PrintResult(std::ostream& out, const Result<sql::QueryResult>& result) {
  if (!result.ok()) {
    out << "error: " << result.status().ToString() << "\n";
    return;
  }
  if (!result->columns.empty() || !result->rows.empty()) {
    out << FormatTable(result->columns, result->rows);
  } else {
    out << "ok\n";
  }
}

}  // namespace

int RunRepl(std::istream& in, std::ostream& out, ShellBackend* backend,
            bool interactive) {
  out << backend->Banner() << "; .help for commands\n";
  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      out << (buffer.empty() ? "rql> " : "...> ");
      out.flush();
    }
    if (!std::getline(in, line)) break;

    if (buffer.empty() && !line.empty() && line[0] == '.') {
      DotCommand cmd = ParseDotCommand(line);
      if (cmd.name == ".quit" || cmd.name == ".exit") break;
      if (cmd.name == ".help") {
        out << kHelp;
      } else if (cmd.name == ".tables" || cmd.name == ".indexes") {
        PrintResult(out, backend->ListSchema(cmd.name == ".indexes"));
      } else if (cmd.name == ".snapshot") {
        auto snap = backend->DeclareSnapshot(cmd.arg);
        if (snap.ok()) {
          out << "declared snapshot " << *snap << "\n";
        } else {
          out << "error: " << snap.status().ToString() << "\n";
        }
      } else if (cmd.name == ".snapshots") {
        PrintResult(out, backend->Snapshots());
      } else if (cmd.name == ".meta") {
        if (cmd.arg.empty()) {
          // Executing the empty string used to reach the parser (and its
          // error) — print usage instead.
          out << "usage: .meta <sql>\n";
        } else {
          PrintResult(out, backend->MetaSql(cmd.arg));
        }
      } else if (cmd.name == ".stats") {
        auto text = backend->RunStatsText();
        if (text.ok()) {
          out << *text;
        } else {
          out << "error: " << text.status().ToString() << "\n";
        }
      } else if (cmd.name == ".truncate") {
        char* end = nullptr;
        unsigned long keep =
            cmd.arg.empty() ? 0 : std::strtoul(cmd.arg.c_str(), &end, 10);
        if (keep == 0 || end == nullptr || *end != '\0') {
          out << "usage: .truncate <keep_from_snapshot_id>\n";
        } else {
          auto earliest =
              backend->Truncate(static_cast<retro::SnapshotId>(keep));
          if (earliest.ok()) {
            out << "history truncated; earliest snapshot is now "
                << *earliest << "\n";
          } else {
            out << "error: " << earliest.status().ToString() << "\n";
          }
        }
      } else {
        out << "unknown command " << cmd.name << " (.help)\n";
      }
      continue;
    }

    buffer += line;
    buffer += '\n';
    if (Trim(buffer).empty()) {
      buffer.clear();
      continue;
    }
    // Execute once the statement list is lexically terminated: a ';'
    // inside a string literal or comment keeps buffering.
    if (!StatementComplete(buffer)) continue;
    PrintResult(out, backend->DataSql(buffer));
    buffer.clear();
  }
  if (interactive) out << "\nbye\n";
  return 0;
}

}  // namespace rql::server
