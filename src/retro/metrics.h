#ifndef RQL_RETRO_METRICS_H_
#define RQL_RETRO_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rql::retro {

/// A process- or run-scoped registry of named metrics, unifying the ad-hoc
/// counters that grew across `RqlRunStats`, `SnapshotStore`, `BufferPool`
/// and `Pagelog`. Three metric kinds:
///
///   - Counter:   monotonic int64, relaxed-atomic `Add` (lock-free on the
///                hot path; the registry mutex is only taken on first
///                lookup of a name).
///   - Gauge:     a callback returning the *current* value of something
///                owned elsewhere (buffer-pool hit count, pagelog size).
///                Gauges never copy state, so they cannot drift from the
///                component's own accounting.
///   - Histogram: fixed power-of-two microsecond buckets plus count/sum,
///                for latency-shaped values.
///
/// Naming convention: `<component>.<metric>` in lower snake case, e.g.
/// `rql.qq_parse_count`, `buffer_pool.hits`, `pagelog.size_bytes`.
/// The engine publishes every legacy `RqlRunStats` counter under `rql.*`
/// once per run, so a registry delta taken around a run equals the legacy
/// struct exactly (see metrics_test.cc).
///
/// Lifetime: `Counter*`/`Histogram*` handles are stable for the registry's
/// lifetime. Gauge callbacks capture the component they read; callers that
/// register gauges on a registry outliving the component must RemoveGauge
/// (or use a locally scoped registry, as tools/rql_report does).
class MetricsRegistry {
 public:
  class Counter {
   public:
    void Add(int64_t delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
    void Increment() { Add(1); }
    int64_t value() const { return v_.load(std::memory_order_relaxed); }

   private:
    friend class MetricsRegistry;
    void Reset() { v_.store(0, std::memory_order_relaxed); }
    std::atomic<int64_t> v_{0};
  };

  class Histogram {
   public:
    /// Bucket b covers [2^(b-1), 2^b) us, bucket 0 covers [0, 1); the last
    /// bucket absorbs everything >= 2^(kBuckets-2) us (~4.4 minutes).
    static constexpr int kBuckets = 20;

    void ObserveUs(int64_t us);
    int64_t count() const;
    int64_t sum_us() const;
    /// Inclusive lower bound of `bucket` in microseconds.
    static int64_t BucketLowerBoundUs(int bucket);

   private:
    friend class MetricsRegistry;
    void Reset();
    std::array<std::atomic<int64_t>, kBuckets> buckets_{};
    std::atomic<int64_t> sum_us_{0};
  };

  using GaugeFn = std::function<int64_t()>;

  MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// A number no other registry of the process has had, so a caller that
  /// keeps handles can tell this registry from a later one built at the
  /// same address.
  uint64_t id() const { return id_; }

  /// Process-wide default registry; used when `RqlOptions::metrics` is
  /// null. Never destroyed (avoids shutdown-order races with gauges).
  static MetricsRegistry* Default();

  /// Returns the counter named `name`, creating it (at zero) on first use.
  Counter* GetCounter(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Installs (or replaces) the gauge named `name`.
  void SetGauge(const std::string& name, GaugeFn fn);
  void RemoveGauge(const std::string& name);
  /// Removes every gauge whose name starts with `prefix` (component
  /// teardown helper).
  void RemoveGaugesWithPrefix(const std::string& prefix);

  struct HistogramSnapshot {
    std::vector<int64_t> buckets;
    int64_t count = 0;
    int64_t sum_us = 0;
  };
  struct Snapshot {
    std::map<std::string, int64_t> counters;
    std::map<std::string, int64_t> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    /// Counter and histogram values become `this - before`; a name absent
    /// from `before` counts as zero there. Gauges keep their current
    /// (point-in-time) value — they are views, not accumulators.
    Snapshot DeltaFrom(const Snapshot& before) const;
    /// Counter value by name; 0 when absent.
    int64_t counter(const std::string& name) const;
  };

  /// Point-in-time copy of every metric (gauge callbacks are invoked).
  Snapshot TakeSnapshot() const;

  /// Zeroes all counters and histograms. Gauges are untouched — they read
  /// live component state the registry does not own.
  void Reset();

 private:
  const uint64_t id_;
  mutable std::mutex mu_;  // guards the maps, not counter values
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, GaugeFn> gauges_;
};

}  // namespace rql::retro

#endif  // RQL_RETRO_METRICS_H_
