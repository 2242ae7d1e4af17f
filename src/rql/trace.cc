#include "rql/trace.h"

#include "common/clock.h"

namespace rql {

RqlTrace::RqlTrace(const RqlTrace& other) {
  std::lock_guard<std::mutex> lock(other.mu_);
  ring_ = other.ring_;
  capacity_ = other.capacity_;
  emitted_ = other.emitted_;
  t0_us_ = other.t0_us_;
  session_id_ = other.session_id_;
  run_id_ = other.run_id_;
}

RqlTrace& RqlTrace::operator=(const RqlTrace& other) {
  if (this == &other) return *this;
  std::scoped_lock lock(mu_, other.mu_);
  ring_ = other.ring_;
  capacity_ = other.capacity_;
  emitted_ = other.emitted_;
  t0_us_ = other.t0_us_;
  session_id_ = other.session_id_;
  run_id_ = other.run_id_;
  return *this;
}

void RqlTrace::Restart(size_t capacity, int64_t now_us) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
  ring_.clear();
  ring_.reserve(capacity_ < 1024 ? capacity_ : 1024);
  emitted_ = 0;
  t0_us_ = now_us;
  session_id_ = 0;
  run_id_ = 0;
}

void RqlTrace::SetContext(uint64_t session_id, uint64_t run_id) {
  std::lock_guard<std::mutex> lock(mu_);
  session_id_ = session_id;
  run_id_ = run_id;
}

uint64_t RqlTrace::session_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return session_id_;
}

uint64_t RqlTrace::run_id() const {
  std::lock_guard<std::mutex> lock(mu_);
  return run_id_;
}

void RqlTrace::Emit(RqlTraceEventType type, retro::SnapshotId snapshot,
                    std::initializer_list<int64_t> args, uint16_t worker) {
  std::lock_guard<std::mutex> lock(mu_);
  if (capacity_ == 0) return;
  RqlTraceEvent ev;
  ev.t_us = NowMicros() - t0_us_;
  ev.snapshot = snapshot;
  ev.type = type;
  ev.worker = worker;
  size_t i = 0;
  for (int64_t a : args) {
    if (i >= 6) break;
    ev.args[i++] = a;
  }
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[emitted_ % capacity_] = ev;
  }
  ++emitted_;
}

std::vector<RqlTraceEvent> RqlTrace::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (emitted_ <= ring_.size()) return ring_;
  // Ring wrapped: oldest retained event sits at the write head.
  std::vector<RqlTraceEvent> out;
  out.reserve(ring_.size());
  size_t head = emitted_ % capacity_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head + i) % capacity_]);
  }
  return out;
}

int64_t RqlTrace::emitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(emitted_);
}

int64_t RqlTrace::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return emitted_ <= ring_.size()
             ? 0
             : static_cast<int64_t>(emitted_ - ring_.size());
}

size_t RqlTrace::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

const char* RqlTrace::TypeName(RqlTraceEventType type) {
  switch (type) {
    case RqlTraceEventType::kRunBegin:
      return "run_begin";
    case RqlTraceEventType::kRunEnd:
      return "run_end";
    case RqlTraceEventType::kIterationBegin:
      return "iteration_begin";
    case RqlTraceEventType::kIterationEnd:
      return "iteration_end";
    case RqlTraceEventType::kSptBuild:
      return "spt_build";
    case RqlTraceEventType::kArchiveFetch:
      return "archive_fetch";
    case RqlTraceEventType::kScanCache:
      return "scan_cache";
    case RqlTraceEventType::kIterationSkip:
      return "iteration_skip";
    case RqlTraceEventType::kWorkerStall:
      return "worker_stall";
    case RqlTraceEventType::kMemoHit:
      return "memo_hit";
    case RqlTraceEventType::kPrefetch:
      return "prefetch";
  }
  return "unknown";
}

}  // namespace rql
