#include "src/sim/cpu.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace e2e {
namespace {

TEST(CpuCoreTest, ExecutesFifo) {
  Simulator sim;
  CpuCore core(&sim, "t");
  std::vector<int> done;
  core.SubmitFixed(Duration::Micros(3), [&] { done.push_back(1); });
  core.SubmitFixed(Duration::Micros(1), [&] { done.push_back(2); });
  core.SubmitFixed(Duration::Micros(2), [&] { done.push_back(3); });
  sim.Run();
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(6000));
  EXPECT_EQ(core.items_done(), 3u);
}

TEST(CpuCoreTest, CostComputedAtStartTime) {
  Simulator sim;
  CpuCore core(&sim, "t");
  int pending = 0;
  core.SubmitFixed(Duration::Micros(2));  // Keeps the core busy until 2 us.
  // Cost depends on state observed when the work begins (at 2 us), not at
  // submission time (now, when pending is still 0).
  core.Submit([&]() -> Duration { return Duration::Micros(pending); });
  pending = 7;
  TimePoint done_at;
  core.SubmitFixed(Duration::Zero(), [&] { done_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(done_at, TimePoint::FromNanos(9000));
}

TEST(CpuCoreTest, BusyTimeAccumulatesAndIncludesPartialWork) {
  Simulator sim;
  CpuCore core(&sim, "t");
  core.SubmitFixed(Duration::Micros(10));
  sim.RunUntil(TimePoint::FromNanos(4000));
  EXPECT_EQ(core.busy_time(), Duration::Micros(4));  // Mid-execution.
  EXPECT_TRUE(core.busy());
  sim.Run();
  EXPECT_EQ(core.busy_time(), Duration::Micros(10));
  EXPECT_FALSE(core.busy());
}

TEST(CpuCoreTest, IdleGapsDoNotCountAsBusy) {
  Simulator sim;
  CpuCore core(&sim, "t");
  core.SubmitFixed(Duration::Micros(2));
  sim.Run();
  sim.Schedule(Duration::Micros(100), [&] { core.SubmitFixed(Duration::Micros(3)); });
  sim.Run();
  EXPECT_EQ(core.busy_time(), Duration::Micros(5));
}

TEST(CpuCoreTest, QueueDepthExcludesExecutingItem) {
  Simulator sim;
  CpuCore core(&sim, "t");
  core.SubmitFixed(Duration::Micros(5));
  core.SubmitFixed(Duration::Micros(5));
  core.SubmitFixed(Duration::Micros(5));
  sim.RunUntil(TimePoint::FromNanos(1000));
  EXPECT_EQ(core.queue_depth(), 2u);
}

TEST(CpuCoreTest, DoneCallbackMaySubmitMoreWork) {
  Simulator sim;
  CpuCore core(&sim, "t");
  std::vector<int> order;
  core.SubmitFixed(Duration::Micros(1), [&] {
    order.push_back(1);
    core.SubmitFixed(Duration::Micros(1), [&] { order.push_back(3); });
  });
  core.SubmitFixed(Duration::Micros(1), [&] { order.push_back(2); });
  sim.Run();
  // Work submitted from a done-callback queues behind already-queued work.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

// A done that submits to its own, now idle, core: the new item starts at
// once, inside Submit, and the core moves on to holding the new item's done
// while the first done is still running. The first done's captures must
// survive that, and each done must run exactly once, in FIFO order.
TEST(CpuCoreTest, DoneSubmittingToIdleCoreKeepsRunningDoneIntact) {
  Simulator sim;
  CpuCore core(&sim, "t");
  std::vector<std::string> log;
  auto token = std::make_shared<std::string>("first");
  core.SubmitFixed(Duration::Micros(1), [&, token] {
    log.push_back("done1 " + *token);
    core.Submit(
        [&]() -> Duration {
          log.push_back("start2");
          return Duration::Micros(1);
        },
        [&] { log.push_back("done2"); });
    log.push_back("done1 " + *token + " after submit");
  });
  token.reset();  // The queued done now holds the only reference.
  sim.Run();
  EXPECT_EQ(log, (std::vector<std::string>{"done1 first", "start2", "done1 first after submit",
                                           "done2"}));
  EXPECT_EQ(sim.Now(), TimePoint::FromNanos(2000));
  EXPECT_EQ(core.items_done(), 2u);
}

TEST(CpuCoreTest, ZeroCostWorkCompletesAtCurrentInstant) {
  Simulator sim;
  CpuCore core(&sim, "t");
  TimePoint done_at = TimePoint::Max();
  sim.Schedule(Duration::Micros(3), [&] {
    core.SubmitFixed(Duration::Zero(), [&] { done_at = sim.Now(); });
  });
  sim.Run();
  EXPECT_EQ(done_at, TimePoint::FromNanos(3000));
}

TEST(CpuCoreTest, UtilizationFromBusyDeltas) {
  Simulator sim;
  CpuCore core(&sim, "t");
  // 30% duty cycle: 3 us of work every 10 us.
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Duration::Micros(10 * i), [&] { core.SubmitFixed(Duration::Micros(3)); });
  }
  const Duration before = core.busy_time();
  sim.RunUntil(TimePoint::FromNanos(100000));
  const double util = (core.busy_time() - before).ToSeconds() / 100e-6;
  EXPECT_NEAR(util, 0.3, 1e-9);
}

}  // namespace
}  // namespace e2e
