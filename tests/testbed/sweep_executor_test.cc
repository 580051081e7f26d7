// Sweep harness tests (DESIGN.md §12). The argv parser, output files and
// same-seed check every sweep binary shares; then the SweepExecutor
// contract: bodies may run on any worker in any order, but commits run on
// the calling thread, strictly in cell-index order, exactly once per cell
// — which is what makes --jobs=N output byte-identical to --jobs=1. The
// jobs=1-vs-jobs=4 identity is checked here at the result level on a real
// robustness grid; the byte-level stdout/JSON comparison lives in CI
// (parallel-identity job).

#include "src/testbed/sweep/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/testbed/robustness.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr unsigned kEveryFlag =
    kSweepSmoke | kSweepJobs | kSweepShards | kSweepTrace | kSweepSeries | kSweepLeafSpine;

// Parses `argv` (without the program name) and returns what the parser
// printed to stderr through *printed.
bool Parse(std::vector<const char*> argv, unsigned accepted, SweepArgs* args,
           std::string* printed = nullptr) {
  argv.insert(argv.begin(), "sweep");
  testing::internal::CaptureStderr();
  const bool ok = ParseSweepArgs(static_cast<int>(argv.size()), argv.data(), accepted, args);
  const std::string err = testing::internal::GetCapturedStderr();
  if (printed != nullptr) {
    *printed = err;
  }
  return ok;
}

TEST(SweepArgsTest, JobsTakesACountAndZeroMeansAllCores) {
  SweepArgs args;
  EXPECT_TRUE(Parse({"--jobs=4"}, kSweepJobs, &args));
  EXPECT_EQ(args.jobs, 4);
  EXPECT_TRUE(Parse({"--jobs=1"}, kSweepJobs, &args));
  EXPECT_EQ(args.jobs, 1);

  // 0 = "use all cores"; always resolves to at least one worker.
  EXPECT_TRUE(Parse({"--jobs=0"}, kSweepJobs, &args));
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(args.jobs, hw > 0 ? static_cast<int>(hw) : 1);
  EXPECT_GE(args.jobs, 1);
}

TEST(SweepArgsTest, ShardsTakesACountAboveTheCallersMinimum) {
  SweepArgs args;
  EXPECT_TRUE(Parse({"--shards=0"}, kSweepShards, &args));
  EXPECT_EQ(args.shards, 0);  // The classic engine.
  EXPECT_TRUE(Parse({"--shards=4"}, kSweepShards, &args));
  EXPECT_EQ(args.shards, 4);

  // engine_perf's top worker count starts at 1.
  args.min_shards = 1;
  std::string err;
  EXPECT_FALSE(Parse({"--shards=0"}, kSweepShards, &args, &err));
  EXPECT_EQ(err, "invalid --shards=0\n");
  EXPECT_EQ(args.shards, 4);
  EXPECT_TRUE(Parse({"--shards=1"}, kSweepShards, &args));
  EXPECT_EQ(args.shards, 1);
}

TEST(SweepArgsTest, RejectsMalformedOrNegativeCounts) {
  // A count that does not fit an int is malformed too, not wrapped.
  for (const char* arg : {"--jobs=banana", "--jobs=", "--jobs=-2", "--jobs=3x", "--jobs=2147483648",
                          "--shards=banana", "--shards=", "--shards=-1", "--shards=4294967297"}) {
    SweepArgs args;
    std::string err;
    EXPECT_FALSE(Parse({arg}, kEveryFlag, &args, &err)) << arg;
    EXPECT_EQ(err, std::string("invalid ") + arg + "\n");
    EXPECT_EQ(args.jobs, 1) << arg;
    EXPECT_EQ(args.shards, 0) << arg;
  }
  // The first bad argument is the one reported.
  SweepArgs args;
  std::string err;
  EXPECT_FALSE(Parse({"--jobs=banana", "--bogus"}, kEveryFlag, &args, &err));
  EXPECT_EQ(err, "invalid --jobs=banana\n");
}

TEST(SweepArgsTest, RejectsFlagsTheBinaryDoesNotAccept) {
  struct Case {
    const char* arg;
    unsigned accepted;
  };
  const Case cases[] = {
      {"--trace=t.json", kSweepSmoke | kSweepJobs},  // recovery_sweep
      {"--shards=2", kSweepSmoke | kSweepJobs | kSweepTrace | kSweepSeries},  // robustness
      {"--smoke", kSweepJobs},                                                // impairment
      {"--series=s.csv", kSweepJobs},
      {"--leafspine", kSweepSmoke},
      {"--jobs=2", kSweepSmoke},
      {"--bogus", kEveryFlag},
      {"--smoke=1", kEveryFlag},
      {"--", kEveryFlag},
  };
  for (const Case& c : cases) {
    // A flag the binary does not take must not become the output file.
    SweepArgs args;
    args.json_path = "kept.json";
    std::string err;
    EXPECT_FALSE(Parse({c.arg}, c.accepted, &args, &err)) << c.arg;
    EXPECT_EQ(err, std::string("invalid ") + c.arg + "\n");
    EXPECT_STREQ(args.json_path, "kept.json");
    EXPECT_EQ(args.trace_path, nullptr);
    EXPECT_EQ(args.series_path, nullptr);
  }
}

TEST(SweepArgsTest, TakesPositionalPathsIncludingDash) {
  SweepArgs args;
  EXPECT_TRUE(Parse({"out.json"}, 0, &args));
  EXPECT_STREQ(args.json_path, "out.json");
  // A single dash is a path, not a flag.
  EXPECT_TRUE(Parse({"-"}, 0, &args));
  EXPECT_STREQ(args.json_path, "-");

  // Flags and paths mix in any order; the last path wins.
  SweepArgs all;
  EXPECT_TRUE(Parse({"a.json", "--smoke", "--trace=t.json", "b.json", "--series=s.csv",
                     "--leafspine", "--jobs=3", "--shards=2"},
                    kEveryFlag, &all));
  EXPECT_STREQ(all.json_path, "b.json");
  EXPECT_STREQ(all.trace_path, "t.json");
  EXPECT_STREQ(all.series_path, "s.csv");
  EXPECT_TRUE(all.smoke);
  EXPECT_TRUE(all.leafspine);
  EXPECT_EQ(all.jobs, 3);
  EXPECT_EQ(all.shards, 2);
}

TEST(SweepArgsTest, KeepsTheCallersDefaults) {
  // engine_perf's defaults: --jobs=4 --shards=4 BENCH_engine.json.
  SweepArgs args;
  args.jobs = 4;
  args.shards = 4;
  args.min_shards = 1;
  args.json_path = "BENCH_engine.json";
  std::string err;
  EXPECT_TRUE(Parse({"--smoke"}, kSweepSmoke | kSweepJobs | kSweepShards, &args, &err));
  EXPECT_EQ(err, "");
  EXPECT_TRUE(args.smoke);
  EXPECT_EQ(args.jobs, 4);
  EXPECT_EQ(args.shards, 4);
  EXPECT_STREQ(args.json_path, "BENCH_engine.json");

  SweepArgs plain;
  EXPECT_TRUE(Parse({}, kEveryFlag, &plain));
  EXPECT_FALSE(plain.smoke);
  EXPECT_FALSE(plain.leafspine);
  EXPECT_EQ(plain.jobs, 1);
  EXPECT_EQ(plain.shards, 0);
  EXPECT_EQ(plain.json_path, nullptr);
  EXPECT_EQ(plain.trace_path, nullptr);
  EXPECT_EQ(plain.series_path, nullptr);
}

TEST(SweepOutputTest, UnwritablePathsReportAndFail) {
  testing::internal::CaptureStderr();
  const JsonOutputFile missing_dir("no-such-dir/out.json");
  EXPECT_EQ(missing_dir.get(), nullptr);
  EXPECT_FALSE(WriteSeriesFile(nullptr, "s.csv"));
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "cannot open no-such-dir/out.json\ncannot write s.csv\n");

  const JsonOutputFile to_stdout(nullptr);
  EXPECT_EQ(to_stdout.get(), stdout);
}

TEST(SweepOutputTest, TraceRecordsOnlyTheTracedCell) {
  SweepTrace off(nullptr);
  EXPECT_EQ(off.For(true), nullptr);
  EXPECT_TRUE(off.Write());  // Nothing to write, nothing printed.

  SweepTrace on("t.json");
  EXPECT_NE(on.For(true), nullptr);
  EXPECT_EQ(on.For(false), nullptr);
}

TEST(SameSeedCheckTest, PrintsTheSweepsLineWhenRunsAgree) {
  int runs = 0;
  const auto run = [&runs](int seed) {
    ++runs;
    return seed * 3;
  };
  const auto same = [](int a, int b) { return a == b; };
  testing::internal::CaptureStdout();
  CheckSameSeed(7, run, same, "toy runs");
  CheckSameSeed(7, run, same, "validation runs", "validation runs");
  EXPECT_EQ(testing::internal::GetCapturedStdout(),
            "determinism check: two same-seed runs identical\n"
            "determinism check: two same-seed validation runs identical\n");
  EXPECT_EQ(runs, 4);
}

TEST(SameSeedCheckDeathTest, AbortsWhenThePredicateReportsDivergence) {
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  // Each run returns something new: a component that leaked state
  // between same-seed runs.
  EXPECT_DEATH(
      {
        int calls = 0;
        CheckSameSeed(
            7, [&calls](int seed) { return seed + calls++; },
            [](int a, int b) { return a == b; }, "toy runs");
      },
      "FATAL: same-seed toy runs diverged");
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
