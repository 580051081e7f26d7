// SweepExecutor contract tests (DESIGN.md §12): bodies may run on any
// worker in any order, but commits run on the calling thread, strictly in
// cell-index order, exactly once per cell — which is what makes --jobs=N
// output byte-identical to --jobs=1. The jobs=1-vs-jobs=4 identity is
// checked here at the result level on a real robustness grid; the
// byte-level stdout/JSON comparison lives in CI (parallel-identity job).

#include "src/testbed/sweep/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "src/testbed/robustness.h"

namespace e2e {
namespace {

TEST(ParseJobsFlagTest, ParsesWellFormedValues) {
  int jobs = -1;
  bool ok = false;
  EXPECT_TRUE(ParseJobsFlag("--jobs=4", &jobs, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(jobs, 4);

  EXPECT_TRUE(ParseJobsFlag("--jobs=1", &jobs, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(jobs, 1);

  // 0 = "use all cores"; always resolves to at least one worker.
  EXPECT_TRUE(ParseJobsFlag("--jobs=0", &jobs, &ok));
  EXPECT_TRUE(ok);
  EXPECT_GE(jobs, 1);
}

TEST(ParseJobsFlagTest, RejectsMalformedValues) {
  int jobs = -1;
  bool ok = true;
  EXPECT_TRUE(ParseJobsFlag("--jobs=banana", &jobs, &ok));
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_TRUE(ParseJobsFlag("--jobs=", &jobs, &ok));
  EXPECT_FALSE(ok);
  ok = true;
  EXPECT_TRUE(ParseJobsFlag("--jobs=-2", &jobs, &ok));
  EXPECT_FALSE(ok);
  // Not a --jobs flag at all: untouched, caller handles it.
  EXPECT_FALSE(ParseJobsFlag("out.json", &jobs, &ok));
  EXPECT_FALSE(ParseJobsFlag("--smoke", &jobs, &ok));
}

TEST(AcceptJsonPathTest, TakesPositionalPathsAndRejectsUnknownFlags) {
  const char* json_path = nullptr;
  EXPECT_TRUE(AcceptJsonPath("out.json", &json_path));
  EXPECT_STREQ(json_path, "out.json");
  // A single dash is a path, not a flag.
  EXPECT_TRUE(AcceptJsonPath("-", &json_path));
  EXPECT_STREQ(json_path, "-");

  // A flag the binary did not match must not become the output file.
  json_path = "kept.json";
  testing::internal::CaptureStderr();
  EXPECT_FALSE(AcceptJsonPath("--trace=t.json", &json_path));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "invalid --trace=t.json\n");
  EXPECT_STREQ(json_path, "kept.json");
  testing::internal::CaptureStderr();
  EXPECT_FALSE(AcceptJsonPath("--", &json_path));
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "invalid --\n");
  EXPECT_STREQ(json_path, "kept.json");
}

TEST(SweepExecutorTest, CommitsInIndexOrderOnCallerThread) {
  const std::thread::id caller = std::this_thread::get_id();
  constexpr size_t kCells = 64;
  std::vector<int> body_runs(kCells, 0);
  std::vector<size_t> commit_order;

  SweepExecutor executor(4);
  executor.Run(
      kCells,
      [&](size_t i) {
        // Uneven cell durations so completion order differs from index
        // order under parallelism.
        if (i % 7 == 0) {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        ++body_runs[i];
      },
      [&](size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        commit_order.push_back(i);
      });

  ASSERT_EQ(commit_order.size(), kCells);
  for (size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(commit_order[i], i);
    EXPECT_EQ(body_runs[i], 1);
  }
}

TEST(SweepExecutorTest, SerialAndDegenerateShapes) {
  std::vector<size_t> order;
  SweepExecutor serial(1);
  serial.Run(
      3, [&](size_t i) { order.push_back(i * 10); }, [&](size_t i) { order.push_back(i); });
  // jobs=1 interleaves body/commit per cell, in order.
  EXPECT_EQ(order, (std::vector<size_t>{0, 0, 10, 1, 20, 2}));

  // Zero cells: no calls, no hang.
  SweepExecutor parallel(4);
  parallel.Run(
      0, [&](size_t) { FAIL() << "body on empty sweep"; },
      [&](size_t) { FAIL() << "commit on empty sweep"; });
}

// Stress shape for TSan: many tiny cells, more workers than cores, shared
// counters touched only through the documented contract (body writes its
// own cell's state; commit reads it on the caller thread).
TEST(SweepExecutorTest, StressManyCellsExactlyOnce) {
  constexpr size_t kCells = 512;
  std::atomic<size_t> bodies{0};
  std::vector<uint64_t> cell_value(kCells, 0);
  size_t commits = 0;
  uint64_t checksum = 0;

  SweepExecutor executor(8);
  executor.Run(
      kCells,
      [&](size_t i) {
        cell_value[i] = i * 2654435761u;
        bodies.fetch_add(1, std::memory_order_relaxed);
      },
      [&](size_t i) {
        ++commits;
        checksum ^= cell_value[i] + i;
      });

  EXPECT_EQ(bodies.load(), kCells);
  EXPECT_EQ(commits, kCells);
  uint64_t expected = 0;
  for (size_t i = 0; i < kCells; ++i) {
    expected ^= i * 2654435761u + i;
  }
  EXPECT_EQ(checksum, expected);
}

// End-to-end identity on a real grid: four robustness cells (tiny windows)
// produce bitwise-identical results under jobs=1 and jobs=4. This is the
// behavioral half of the byte-identity acceptance bar.
TEST(SweepExecutorTest, RobustnessGridIdenticalAcrossJobs) {
  const auto make_cell = [](size_t i) {
    RobustnessConfig config;
    config.seed = 42 + i;
    config.rate_rps = 20000;
    config.warmup = Duration::Millis(20);
    config.measure = Duration::Millis(60);
    config.fallback_enabled = (i % 2) == 0;
    if (i >= 2) {
      config.faults.Add(FaultKind::kMetaWithhold,
                        TimePoint::Zero() + config.warmup + Duration::Millis(20),
                        Duration::Millis(15));
    }
    return config;
  };

  const auto run_grid = [&](int jobs) {
    std::vector<RobustnessResult> results(4);
    SweepExecutor executor(jobs);
    executor.Run(
        results.size(), [&](size_t i) { results[i] = RunRobustnessExperiment(make_cell(i)); },
        [](size_t) {});
    return results;
  };

  const std::vector<RobustnessResult> serial = run_grid(1);
  const std::vector<RobustnessResult> parallel = run_grid(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const RobustnessResult& a = serial[i];
    const RobustnessResult& b = parallel[i];
    EXPECT_EQ(a.requests_completed, b.requests_completed) << "cell " << i;
    // Bitwise double comparison: determinism means identical, not close.
    EXPECT_EQ(std::memcmp(&a.measured_mean_us, &b.measured_mean_us, sizeof(double)), 0)
        << "cell " << i;
    EXPECT_EQ(std::memcmp(&a.measured_p99_us, &b.measured_p99_us, sizeof(double)), 0)
        << "cell " << i;
    EXPECT_EQ(a.controller_switches, b.controller_switches) << "cell " << i;
    EXPECT_EQ(a.frozen_ticks, b.frozen_ticks) << "cell " << i;
    EXPECT_EQ(a.health.demotions, b.health.demotions) << "cell " << i;
    EXPECT_EQ(a.faults.meta_windows, b.faults.meta_windows) << "cell " << i;
  }
}

}  // namespace
}  // namespace e2e
