#include "retro/metrics.h"

namespace rql::retro {

void MetricsRegistry::Histogram::ObserveUs(int64_t us) {
  int bucket = 0;
  if (us > 0) {
    uint64_t v = static_cast<uint64_t>(us);
    while (v > 0) {
      ++bucket;
      v >>= 1;
    }
    if (bucket > kBuckets - 1) bucket = kBuckets - 1;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(us, std::memory_order_relaxed);
}

int64_t MetricsRegistry::Histogram::count() const {
  int64_t n = 0;
  for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
  return n;
}

int64_t MetricsRegistry::Histogram::sum_us() const {
  return sum_us_.load(std::memory_order_relaxed);
}

int64_t MetricsRegistry::Histogram::BucketLowerBoundUs(int bucket) {
  if (bucket <= 0) return 0;
  return int64_t{1} << (bucket - 1);
}

void MetricsRegistry::Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  sum_us_.store(0, std::memory_order_relaxed);
}

MetricsRegistry::MetricsRegistry()
    : id_([] {
        static std::atomic<uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* instance = new MetricsRegistry();
  return instance;
}

MetricsRegistry::Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

MetricsRegistry::Histogram* MetricsRegistry::GetHistogram(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::SetGauge(const std::string& name, GaugeFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = std::move(fn);
}

void MetricsRegistry::RemoveGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_.erase(name);
}

void MetricsRegistry::RemoveGaugesWithPrefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.lower_bound(prefix);
  while (it != gauges_.end() && it->first.compare(0, prefix.size(), prefix) == 0) {
    it = gauges_.erase(it);
  }
}

MetricsRegistry::Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  // Copy the gauge callbacks out so user callbacks run outside mu_ (a
  // gauge reading a component that itself touches this registry must not
  // deadlock).
  std::vector<std::pair<std::string, GaugeFn>> gauges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      snap.counters[name] = c->value();
    }
    for (const auto& [name, h] : histograms_) {
      HistogramSnapshot hs;
      hs.buckets.reserve(Histogram::kBuckets);
      for (const auto& b : h->buckets_) {
        hs.buckets.push_back(b.load(std::memory_order_relaxed));
      }
      hs.count = h->count();
      hs.sum_us = h->sum_us();
      snap.histograms[name] = std::move(hs);
    }
    gauges.reserve(gauges_.size());
    for (const auto& [name, fn] : gauges_) gauges.emplace_back(name, fn);
  }
  for (const auto& [name, fn] : gauges) snap.gauges[name] = fn();
  return snap;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

MetricsRegistry::Snapshot MetricsRegistry::Snapshot::DeltaFrom(
    const Snapshot& before) const {
  Snapshot delta = *this;
  for (auto& [name, v] : delta.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) v -= it->second;
  }
  for (auto& [name, h] : delta.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end()) continue;
    h.count -= it->second.count;
    h.sum_us -= it->second.sum_us;
    for (size_t i = 0;
         i < h.buckets.size() && i < it->second.buckets.size(); ++i) {
      h.buckets[i] -= it->second.buckets[i];
    }
  }
  return delta;
}

int64_t MetricsRegistry::Snapshot::counter(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace rql::retro
