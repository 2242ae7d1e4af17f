// Unit tests for the run scheduler in isolation: FIFO-per-session
// fairness, one-run-per-session dispatch, bounded admission, worker
// budget reservation (grant floor of 1 against an empty pool), run and
// session cancellation, and shutdown draining.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "server/scheduler.h"

namespace rql::server {
namespace {

using Ticket = RunScheduler::Ticket;

/// A manually-released gate run bodies can block on, so tests control
/// exactly when a "run" finishes.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

TEST(SchedulerTest, RunsCompleteAndAssignIncreasingRunIds) {
  RunScheduler scheduler({});
  std::atomic<int> executed{0};
  std::vector<std::shared_ptr<Ticket>> tickets;
  uint64_t prev = 0;
  for (int i = 0; i < 8; ++i) {
    auto ticket = scheduler.Submit(/*session_id=*/1, /*workers=*/1,
                                   [&](Ticket*) {
                                     executed.fetch_add(1);
                                     return Status::OK();
                                   });
    ASSERT_TRUE(ticket.ok());
    EXPECT_GT((*ticket)->run_id, prev);
    prev = (*ticket)->run_id;
    tickets.push_back(*ticket);
  }
  for (auto& t : tickets) EXPECT_TRUE(scheduler.Wait(t.get()).ok());
  EXPECT_EQ(executed.load(), 8);
  EXPECT_EQ(scheduler.completed(), 8);
  EXPECT_EQ(scheduler.queued(), 0);
  EXPECT_EQ(scheduler.active(), 0);
  scheduler.Shutdown();
}

TEST(SchedulerTest, WaitReturnsOnlyAfterTheRunIsAccounted) {
  // Once Wait() returns, the scheduler has counted the run as completed
  // and no longer active. The completion callback sleeps (a slow client
  // push) to hold open the window in which a waiter could otherwise
  // observe the run done but not yet accounted.
  RunScheduler scheduler({});
  for (int round = 1; round <= 200; ++round) {
    auto ticket = scheduler.Submit(
        /*session_id=*/1, /*workers=*/1, [](Ticket*) { return Status::OK(); },
        [](const Ticket&) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        });
    ASSERT_TRUE(ticket.ok());
    ASSERT_TRUE(scheduler.Wait(ticket->get()).ok());
    ASSERT_EQ(scheduler.completed(), round);
    ASSERT_EQ(scheduler.active(), 0);
  }
  scheduler.Shutdown();
}

TEST(SchedulerTest, OneRunPerSessionEvenWithFreeDispatchers) {
  RunScheduler::Options options;
  options.dispatch_threads = 4;
  RunScheduler scheduler(options);
  Gate gate;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  auto body = [&](Ticket*) {
    int now = concurrent.fetch_add(1) + 1;
    int seen = peak.load();
    while (now > seen && !peak.compare_exchange_weak(seen, now)) {
    }
    gate.Wait();
    concurrent.fetch_sub(1);
    return Status::OK();
  };
  std::vector<std::shared_ptr<Ticket>> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = scheduler.Submit(/*session_id=*/7, 1, body);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  // Give the dispatchers every chance to (incorrectly) run two at once.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_LE(concurrent.load(), 1);
  gate.Open();
  for (auto& t : tickets) EXPECT_TRUE(scheduler.Wait(t.get()).ok());
  EXPECT_EQ(peak.load(), 1);  // same session never overlaps itself
  scheduler.Shutdown();
}

TEST(SchedulerTest, DistinctSessionsRunConcurrently) {
  RunScheduler::Options options;
  options.dispatch_threads = 3;
  RunScheduler scheduler(options);
  Gate gate;
  std::atomic<int> started{0};
  auto body = [&](Ticket*) {
    started.fetch_add(1);
    gate.Wait();
    return Status::OK();
  };
  std::vector<std::shared_ptr<Ticket>> tickets;
  for (uint64_t sid = 1; sid <= 3; ++sid) {
    auto t = scheduler.Submit(sid, 1, body);
    ASSERT_TRUE(t.ok());
    tickets.push_back(*t);
  }
  for (int i = 0; i < 400 && started.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(started.load(), 3);
  gate.Open();
  for (auto& t : tickets) EXPECT_TRUE(scheduler.Wait(t.get()).ok());
  scheduler.Shutdown();
}

TEST(SchedulerTest, AdmissionControlBoundsTheQueue) {
  RunScheduler::Options options;
  options.dispatch_threads = 1;
  options.queue_limit = 2;
  RunScheduler scheduler(options);
  Gate gate;
  auto blocker = scheduler.Submit(1, 1, [&](Ticket*) {
    gate.Wait();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  for (int i = 0; i < 400 && scheduler.active() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(scheduler.active(), 1);

  auto q1 = scheduler.Submit(2, 1, [](Ticket*) { return Status::OK(); });
  auto q2 = scheduler.Submit(3, 1, [](Ticket*) { return Status::OK(); });
  ASSERT_TRUE(q1.ok() && q2.ok());
  auto rejected = scheduler.Submit(4, 1, [](Ticket*) { return Status::OK(); });
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kAborted);
  EXPECT_EQ(scheduler.admission_rejects(), 1);

  gate.Open();
  EXPECT_TRUE(scheduler.Wait(blocker->get()).ok());
  EXPECT_TRUE(scheduler.Wait(q1->get()).ok());
  EXPECT_TRUE(scheduler.Wait(q2->get()).ok());
  scheduler.Shutdown();
}

TEST(SchedulerTest, WorkerBudgetCapsGrantsButNeverStarves) {
  RunScheduler::Options options;
  options.dispatch_threads = 3;
  options.worker_budget = 4;
  RunScheduler scheduler(options);
  Gate gate;
  std::atomic<int> started{0};
  std::atomic<int> g1{0}, g2{0}, g3{0};
  auto body = [&](std::atomic<int>* slot) {
    return [&, slot](Ticket* t) {
      slot->store(t->granted_workers);
      started.fetch_add(1);
      gate.Wait();
      return Status::OK();
    };
  };
  // Session 1 asks for more than the whole budget: capped to 4.
  auto t1 = scheduler.Submit(1, 8, body(&g1));
  ASSERT_TRUE(t1.ok());
  for (int i = 0; i < 400 && started.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Sessions 2 and 3 arrive with the pool exhausted: both still dispatch
  // with the floor grant of one worker (which reserves nothing).
  auto t2 = scheduler.Submit(2, 4, body(&g2));
  auto t3 = scheduler.Submit(3, 4, body(&g3));
  ASSERT_TRUE(t2.ok() && t3.ok());
  for (int i = 0; i < 400 && started.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(started.load(), 3);
  EXPECT_EQ(g1.load(), 4);
  EXPECT_EQ(g2.load(), 1);
  EXPECT_EQ(g3.load(), 1);
  gate.Open();
  EXPECT_TRUE(scheduler.Wait(t1->get()).ok());
  EXPECT_TRUE(scheduler.Wait(t2->get()).ok());
  EXPECT_TRUE(scheduler.Wait(t3->get()).ok());

  // With the budget back in the pool, a fresh run gets a real grant again.
  std::atomic<int> g4{0};
  Gate gate2;
  std::atomic<int> started2{0};
  auto t4 = scheduler.Submit(4, 3, [&](Ticket* t) {
    g4.store(t->granted_workers);
    started2.fetch_add(1);
    gate2.Wait();
    return Status::OK();
  });
  ASSERT_TRUE(t4.ok());
  for (int i = 0; i < 400 && started2.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(g4.load(), 3);
  gate2.Open();
  EXPECT_TRUE(scheduler.Wait(t4->get()).ok());
  scheduler.Shutdown();
}

TEST(SchedulerTest, CancelQueuedRunNeverExecutesIt) {
  RunScheduler::Options options;
  options.dispatch_threads = 1;
  RunScheduler scheduler(options);
  Gate gate;
  auto blocker = scheduler.Submit(1, 1, [&](Ticket*) {
    gate.Wait();
    return Status::OK();
  });
  ASSERT_TRUE(blocker.ok());
  std::atomic<bool> ran{false};
  auto queued = scheduler.Submit(2, 1, [&](Ticket*) {
    ran.store(true);
    return Status::OK();
  });
  ASSERT_TRUE(queued.ok());
  scheduler.Cancel(*queued);
  gate.Open();
  Status status = scheduler.Wait(queued->get());
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_FALSE(ran.load());
  EXPECT_TRUE(scheduler.Wait(blocker->get()).ok());
  EXPECT_GE(scheduler.cancelled(), 1);
  scheduler.Shutdown();
}

TEST(SchedulerTest, CancelRunningRunSetsTheCooperativeFlag) {
  RunScheduler scheduler({});
  std::atomic<bool> saw_flag{false};
  std::atomic<bool> running{false};
  auto t = scheduler.Submit(1, 1, [&](Ticket* ticket) {
    running.store(true);
    // Cooperative loop: poll the cancel flag like mechanism iterations do.
    for (int i = 0; i < 2000; ++i) {
      if (ticket->cancel.load()) {
        saw_flag.store(true);
        return Status::Aborted("run cancelled");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::OK();
  });
  ASSERT_TRUE(t.ok());
  while (!running.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  scheduler.Cancel(*t);
  Status status = scheduler.Wait(t->get());
  EXPECT_EQ(status.code(), StatusCode::kAborted);
  EXPECT_TRUE(saw_flag.load());
  scheduler.Shutdown();
}

TEST(SchedulerTest, CancelSessionDrainsQueuedAndRunning) {
  RunScheduler::Options options;
  options.dispatch_threads = 2;
  RunScheduler scheduler(options);
  std::atomic<bool> running{false};
  auto r1 = scheduler.Submit(5, 1, [&](Ticket* ticket) {
    running.store(true);
    while (!ticket->cancel.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Aborted("run cancelled");
  });
  auto r2 = scheduler.Submit(5, 1, [](Ticket*) { return Status::OK(); });
  auto other = scheduler.Submit(6, 1, [](Ticket*) { return Status::OK(); });
  ASSERT_TRUE(r1.ok() && r2.ok() && other.ok());
  while (!running.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  scheduler.CancelSession(5);  // blocks until nothing of session 5 is inflight
  EXPECT_EQ(scheduler.Wait(r1->get()).code(), StatusCode::kAborted);
  EXPECT_EQ(scheduler.Wait(r2->get()).code(), StatusCode::kAborted);
  // The unrelated session is untouched.
  EXPECT_TRUE(scheduler.Wait(other->get()).ok());
  scheduler.Shutdown();
}

TEST(SchedulerTest, ShutdownRejectsNewWorkAndDrains) {
  RunScheduler scheduler({});
  auto t = scheduler.Submit(1, 1, [](Ticket*) { return Status::OK(); });
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(scheduler.Wait(t->get()).ok());
  scheduler.Shutdown();
  auto after = scheduler.Submit(1, 1, [](Ticket*) { return Status::OK(); });
  EXPECT_FALSE(after.ok());
  scheduler.Shutdown();  // idempotent
}

}  // namespace
}  // namespace rql::server
