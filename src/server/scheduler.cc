#include "server/scheduler.h"

#include <algorithm>

namespace rql::server {

RunScheduler::RunScheduler(Options options)
    : options_(options), workers_avail_(options.worker_budget) {
  if (options_.dispatch_threads < 1) {
    const_cast<Options&>(options_).dispatch_threads = 1;
  }
  threads_.reserve(options_.dispatch_threads);
  for (int i = 0; i < options_.dispatch_threads; ++i) {
    threads_.emplace_back([this] { DispatchLoop(); });
  }
}

RunScheduler::~RunScheduler() { Shutdown(); }

Result<std::shared_ptr<RunScheduler::Ticket>> RunScheduler::Submit(
    uint64_t session_id, int workers_requested, RunFn fn,
    std::function<void(const Ticket&)> on_complete) {
  static std::atomic<uint64_t> next_run_id{1};
  auto ticket = std::make_shared<Ticket>();
  ticket->session_id = session_id;
  ticket->run_id = next_run_id.fetch_add(1, std::memory_order_relaxed);
  ticket->on_complete = std::move(on_complete);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      return Status::Aborted("admission control: scheduler shut down");
    }
    if (queued_count_ >= options_.queue_limit) {
      admission_rejects_.fetch_add(1, std::memory_order_relaxed);
      return Status::Aborted("admission control: run queue full");
    }
    SessionQueue& sq = sessions_[session_id];
    bool was_ready = !sq.q.empty() && !sq.busy;
    sq.q.push_back(Pending{ticket, std::move(fn),
                           std::max(1, workers_requested)});
    ++queued_count_;
    ++inflight_[session_id];
    if (!was_ready && !sq.busy) rr_.push_back(session_id);
  }
  work_cv_.notify_one();
  return ticket;
}

void RunScheduler::Cancel(const std::shared_ptr<Ticket>& ticket) {
  if (ticket) ticket->cancel.store(true, std::memory_order_relaxed);
  // A queued run is reaped at its dispatch turn; wake a dispatcher so the
  // Aborted completion is prompt even on an otherwise idle scheduler.
  work_cv_.notify_all();
}

Status RunScheduler::Wait(Ticket* ticket) {
  std::unique_lock<std::mutex> lock(ticket->mu);
  ticket->cv.wait(lock, [ticket] { return ticket->done; });
  return ticket->status;
}

void RunScheduler::Complete(const std::shared_ptr<Ticket>& ticket,
                            Status status) {
  // Counted before `done` is signalled: a Wait()er that then reads
  // completed() must see its own run.
  completed_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(ticket->mu);
    ticket->done = true;
    ticket->status = std::move(status);
  }
  ticket->finished.store(true, std::memory_order_release);
  ticket->cv.notify_all();
  // Before the inflight decrement: CancelSession must not return while a
  // completion callback still references the submitter's connection.
  if (ticket->on_complete) ticket->on_complete(*ticket);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(ticket->session_id);
    if (it != inflight_.end() && --it->second == 0) inflight_.erase(it);
  }
  done_cv_.notify_all();
}

void RunScheduler::DispatchLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !rr_.empty(); });
    if (stop_ && rr_.empty()) return;
    if (rr_.empty()) continue;

    uint64_t sid = rr_.front();
    rr_.pop_front();
    SessionQueue& sq = sessions_[sid];
    Pending pending = std::move(sq.q.front());
    sq.q.pop_front();
    --queued_count_;

    if (pending.ticket->cancel.load(std::memory_order_relaxed) || stop_) {
      // Reap without dispatching; the session stays ready for the next
      // queued run (if any).
      if (!sq.q.empty()) rr_.push_back(sid);
      else sessions_.erase(sid);
      cancelled_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      Complete(pending.ticket, Status::Aborted("run cancelled"));
      lock.lock();
      continue;
    }

    // Grant workers: min(requested, available), floor 1. A grant of 1
    // against an empty pool reserves nothing (sequential execution is
    // always admissible), so concurrent sequential runs never deadlock.
    int grant = 1;
    int reserved = 0;
    if (workers_avail_ >= 1) {
      grant = std::min(pending.workers_requested, workers_avail_);
      workers_avail_ -= grant;
      reserved = grant;
    }
    pending.ticket->granted_workers = grant;
    sq.busy = true;
    ++active_count_;
    std::shared_ptr<Ticket> ticket = pending.ticket;
    running_[sid] = ticket;

    lock.unlock();
    Status status = pending.fn(ticket.get());
    lock.lock();
    // Released before Complete signals the waiter, so a Wait()er that then
    // reads active() or submits again sees the run's slot and workers free.
    workers_avail_ += reserved;
    --active_count_;
    running_.erase(sid);
    lock.unlock();
    Complete(ticket, std::move(status));
    lock.lock();

    // The session stays busy until its completion callback has run, so a
    // session's completions are delivered in submission order.
    auto it = sessions_.find(sid);
    if (it != sessions_.end()) {
      it->second.busy = false;
      if (!it->second.q.empty()) {
        rr_.push_back(sid);
        work_cv_.notify_one();
      } else {
        sessions_.erase(it);
      }
    }
  }
}

void RunScheduler::CancelSession(uint64_t session_id) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it != sessions_.end()) {
      for (Pending& p : it->second.q) {
        p.ticket->cancel.store(true, std::memory_order_relaxed);
      }
    }
    auto run = running_.find(session_id);
    if (run != running_.end()) {
      run->second->cancel.store(true, std::memory_order_relaxed);
    }
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this, session_id] {
    return inflight_.find(session_id) == inflight_.end();
  });
}

void RunScheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      // Already shut down (Shutdown then destructor is the common pair).
      return;
    }
    stop_ = true;
    for (auto& [sid, sq] : sessions_) {
      for (Pending& p : sq.q) {
        p.ticket->cancel.store(true, std::memory_order_relaxed);
      }
    }
    for (auto& [sid, ticket] : running_) {
      ticket->cancel.store(true, std::memory_order_relaxed);
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
  // Dispatchers are gone; reap anything still queued so waiters unblock.
  std::vector<Pending> leftovers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [sid, sq] : sessions_) {
      for (Pending& p : sq.q) leftovers.push_back(std::move(p));
      sq.q.clear();
    }
    sessions_.clear();
    rr_.clear();
    queued_count_ = 0;
  }
  for (Pending& p : leftovers) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    Complete(p.ticket, Status::Aborted("run cancelled"));
  }
}

int64_t RunScheduler::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_count_;
}

int64_t RunScheduler::active() const {
  std::lock_guard<std::mutex> lock(mu_);
  return active_count_;
}

int64_t RunScheduler::admission_rejects() const {
  return admission_rejects_.load(std::memory_order_relaxed);
}

int64_t RunScheduler::completed() const {
  return completed_.load(std::memory_order_relaxed);
}

int64_t RunScheduler::cancelled() const {
  return cancelled_.load(std::memory_order_relaxed);
}

}  // namespace rql::server
