#include "storage/latency_env.h"

#include <chrono>
#include <thread>
#include <utility>

#include "storage/fault_env.h"
#include "storage/page.h"

namespace rql::storage {

/// Forwards to the base file; page-sized reads of a matching file sleep
/// first.
class LatencyFile : public File {
 public:
  LatencyFile(ReadLatencyEnv* env, std::unique_ptr<File> base, bool slow)
      : env_(env), base_(std::move(base)), slow_(slow) {}

  Status Read(uint64_t offset, uint64_t n, char* buf) const override {
    if (slow_ && n == kPageSize) env_->Sleep();
    return base_->Read(offset, n, buf);
  }
  Status Write(uint64_t offset, uint64_t n, const char* buf) override {
    return base_->Write(offset, n, buf);
  }
  Status Append(uint64_t n, const char* buf, uint64_t* offset) override {
    return base_->Append(n, buf, offset);
  }
  uint64_t Size() const override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override { return base_->Sync(); }

 private:
  ReadLatencyEnv* env_;
  std::unique_ptr<File> base_;
  bool slow_;
};

Result<std::unique_ptr<File>> ReadLatencyEnv::OpenFile(
    const std::string& name) {
  RQL_ASSIGN_OR_RETURN(std::unique_ptr<File> file, base_->OpenFile(name));
  return std::unique_ptr<File>(new LatencyFile(
      this, std::move(file),
      FailpointRegistry::GlobMatch("*.pagelog", name)));
}

void ReadLatencyEnv::Sleep() {
  const int64_t latency_us = latency_us_.load(std::memory_order_relaxed);
  if (latency_us <= 0) return;
  sleeps_.fetch_add(1, std::memory_order_relaxed);
  const int slots = slots_.load(std::memory_order_relaxed);
  if (slots > 0) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, slots] { return sleeping_ < slots; });
    ++sleeping_;
  }
  std::this_thread::sleep_for(std::chrono::microseconds(latency_us));
  if (slots > 0) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --sleeping_;
    }
    // All, not one: waiters that read different slot counts wake on
    // different predicates.
    cv_.notify_all();
  }
}

}  // namespace rql::storage
