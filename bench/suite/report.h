#ifndef RQLBENCH_REPORT_H_
#define RQLBENCH_REPORT_H_

// Output side of rqlbench: sample statistics, the named metric set the
// benchmark prints (human table plus one machine-readable JSON line), and
// client-side spans written as Chrome trace-event JSON (Perfetto and
// chrome://tracing open it directly).

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace rqlbench {

/// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Shortest decimal form that reads back as the same double; non-finite
/// values (a ratio over an empty window) print as 0.
inline std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

/// Minimal JSON string escaping for names and error messages.
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind a percentile or mean; 0 for counts and ratios.
  int64_t n = 0;
};

class MetricSet {
 public:
  void Add(std::string name, double value, std::string unit, int64_t n = 0) {
    metrics_.push_back({std::move(name), value, std::move(unit), n});
  }

  void PrintTable(std::FILE* f) const {
    for (const Metric& m : metrics_) {
      std::fprintf(f, "  %-34s %14.4f %-6s", m.name.c_str(), m.value,
                   m.unit.c_str());
      if (m.n > 0) std::fprintf(f, "  (n=%lld)", static_cast<long long>(m.n));
      std::fputc('\n', f);
    }
  }

  /// {"name": {"value": v, "unit": u, "n": n}, ...}
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (i > 0) out += ", ";
      out += JsonString(m.name) + ": {\"value\": " + FormatNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) +
             ", \"n\": " + std::to_string(m.n) + "}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// One timed interval on a client thread. Every span of a request carries
/// the request's id; its wire phases also name the root span as parent.
struct Span {
  const char* name = "";
  int tid = 0;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  uint64_t request = 0;
  const char* parent = "";  // empty for a root span
};

/// A sampled scheduler gauge reading (Chrome counter event).
struct CounterSample {
  int64_t t_us = 0;
  int64_t queued = 0;
  int64_t active = 0;
};

inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<Span>& spans,
                             const std::vector<CounterSample>& counters,
                             int64_t origin_us) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n", f);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (const Span& s : spans) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %lld, \"dur\": %lld, \"args\": {\"request\": %llu, "
                 "\"parent\": \"%s\"}}",
                 s.name, s.tid, static_cast<long long>(s.start_us - origin_us),
                 static_cast<long long>(s.dur_us),
                 static_cast<unsigned long long>(s.request), s.parent);
  }
  for (const CounterSample& c : counters) {
    sep();
    std::fprintf(f,
                 "{\"name\": \"scheduler\", \"ph\": \"C\", \"pid\": 1, "
                 "\"ts\": %lld, \"args\": {\"queued\": %lld, \"active\": "
                 "%lld}}",
                 static_cast<long long>(c.t_us - origin_us),
                 static_cast<long long>(c.queued),
                 static_cast<long long>(c.active));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace rqlbench

#endif  // RQLBENCH_REPORT_H_
