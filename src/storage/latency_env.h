#ifndef RQL_STORAGE_LATENCY_ENV_H_
#define RQL_STORAGE_LATENCY_ENV_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "storage/env.h"

namespace rql::storage {

/// Env wrapper modelling a slow archive device for benchmarks and tests:
/// a page-sized read (kPageSize bytes) of a `*.pagelog` file sleeps for
/// the configured latency before it reaches the base Env.
/// Pagelog::Read issues exactly one such read per archived page it loads
/// (the full-page payload at the root of a diff chain; record headers and
/// diff payloads are smaller), and it runs inside the snapshot cache's
/// loader, so coalesced readers of a shared page share one sleep, as they
/// would share one device read. With read slots set, at most that many
/// reads sleep at once and the rest queue behind them: an archive with
/// finite bandwidth, where duplicated fetches cost aggregate wall time.
/// The latency and slots may change at any time; 0 turns either off.
class ReadLatencyEnv : public Env {
 public:
  explicit ReadLatencyEnv(Env* base) : base_(base) {}

  Result<std::unique_ptr<File>> OpenFile(const std::string& name) override;
  Status DeleteFile(const std::string& name) override {
    return base_->DeleteFile(name);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  bool FileExists(const std::string& name) const override {
    return base_->FileExists(name);
  }

  void set_read_latency_us(int64_t us) {
    latency_us_.store(us, std::memory_order_relaxed);
  }
  /// Bounds how many reads may sleep concurrently; 0 = unbounded.
  void set_read_slots(int n) { slots_.store(n, std::memory_order_relaxed); }

  /// Reads that slept, since construction.
  int64_t sleeps() const { return sleeps_.load(std::memory_order_relaxed); }

 private:
  friend class LatencyFile;

  /// Sleeps the configured latency, queued behind the read slots.
  void Sleep();

  Env* base_;
  std::atomic<int64_t> latency_us_{0};
  std::atomic<int> slots_{0};
  std::atomic<int64_t> sleeps_{0};
  std::mutex mu_;  // guards sleeping_
  std::condition_variable cv_;
  int sleeping_ = 0;
};

}  // namespace rql::storage

#endif  // RQL_STORAGE_LATENCY_ENV_H_
