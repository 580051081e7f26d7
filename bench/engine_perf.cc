// Engine performance harness: the repo's self-measuring perf baseline.
//
// Five layers, one JSON artifact (BENCH_engine.json):
//
//   1. Event-queue microbench — events/sec through the slot-based
//      EventQueue (src/sim/event_queue.h) on a schedule/pop ring and a
//      schedule/cancel/pop churn workload, with Packet-sized captures (that
//      these cost no allocation is tested in alloc_budget_test). A third
//      workload re-arms a long timer around a few live short events (the
//      TCP retransmit-timer pattern) and records how many heap records the
//      queue holds for them.
//   2. Cell wall-clock — one representative robustness cell end to end,
//      the unit of work every sweep grid is made of.
//   3. Sweep scaling — an 8-cell robustness grid through the parallel
//      sweep executor (src/testbed/sweep) at --jobs=1 vs --jobs=N, with a
//      result-fingerprint identity check (parallelism must not change what
//      any cell computes).
//   4. Connection memory — resident-set growth per connection for a lean
//      star fabric (host + NIC + endpoints + estimator) at set-up, then
//      bytes per connection at the run peak of the served 100k lean
//      leaf-spine cell on the classic engine, apps included: the number
//      that bounds 1M-connection cells. Full mode also runs a
//      1M-connection cell against a 12 GB peak. Linux-only; 0 elsewhere.
//   5. Shard scaling — one large lean fleet cell (DESIGN.md §16) run at
//      --shards=1/2/N, reporting engine events/sec per shard count plus a
//      result-fingerprint identity check (sharding is an engine detail,
//      never an experiment detail). Each point also records the load it
//      was offered and served; one that serves under 90% of it aborts the
//      run, because events/sec of a drowning cell is no engine speed.
//
// Wall-clock numbers are inherently machine-dependent; the JSON is a perf
// artifact, not part of the byte-determinism contract. CI runs
// `engine_perf --smoke`, uploads BENCH_engine.json, and asserts the
// events/sec *ratios* from it (1-shard vs. N-shard and jobs=1 vs. jobs=N
// on multi-core runners) plus the re-arm workload's heap-record count —
// never raw wall times.
// Because ratio gates on loaded CI runners are noisy, a measurement whose
// ratio lands under its gate is re-measured once and the better ratio is
// kept (the retry is recorded in the JSON).
//
// Usage: engine_perf [--smoke] [--jobs=N] [--shards=N] [out.json]
//   --smoke    smaller op counts and cells (CI).
//   --jobs=N   worker-pool size for the sweep-scaling section (default 4,
//              0 = all cores).
//   --shards=N top worker count for the shard-scaling section (default 4).
//   out.json defaults to BENCH_engine.json in the working directory.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/testbed/fleet.h"
#include "src/testbed/report.h"
#include "src/testbed/robustness.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

#ifdef __linux__
#include <malloc.h>
#include <unistd.h>
#endif

namespace e2e {
namespace {

// ---------------------------------------------------------------------------
// Microbench workloads. The capture ballast matches the event loop's
// dominant closure (a `this` pointer plus a moved-in Packet, ~72 bytes),
// which stays inline in InlineCallback.
struct CaptureBallast {
  std::array<unsigned char, 64> bytes{};
};

double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

constexpr size_t kRingDepth = 1024;  // Pending events held during the loops.

// Steady-state schedule+pop: keep kRingDepth events pending, each iteration
// pops the earliest and schedules a replacement. Returns ns per
// schedule+pop pair.
double SchedulePopNs(size_t ops) {
  EventQueue q;
  uint64_t sum = 0;
  CaptureBallast ballast;
  ballast.bytes[0] = 1;
  int64_t t = 0;
  for (size_t i = 0; i < kRingDepth; ++i) {
    q.Push(TimePoint::FromNanos(++t), [&sum, ballast] { sum += ballast.bytes[0]; });
  }
  TimePoint clock = TimePoint::Zero();
  const double start = NowSeconds();
  for (size_t i = 0; i < ops; ++i) {
    clock = q.NextTime();  // The simulator peeks to advance its clock.
    auto entry = q.Pop();
    entry.cb();
    q.Push(entry.when + Duration::Nanos(static_cast<int64_t>(kRingDepth)),
           [&sum, ballast] { sum += ballast.bytes[0]; });
  }
  const double elapsed = NowSeconds() - start;
  (void)clock;
  while (!q.Empty()) {
    q.Pop().cb();
  }
  if (sum != ops + kRingDepth) {
    std::fprintf(stderr, "FATAL: microbench fired %llu callbacks, expected %llu\n",
                 static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(ops + kRingDepth));
    std::abort();
  }
  return elapsed / static_cast<double>(ops) * 1e9;
}

// Schedule/cancel/pop churn: each iteration schedules two events, cancels
// the later one (the timer-rearm pattern TCP retransmit/delack timers
// generate), and pops one. Returns ns per iteration.
double ScheduleCancelPopNs(size_t ops) {
  EventQueue q;
  uint64_t sum = 0;
  CaptureBallast ballast;
  ballast.bytes[0] = 1;
  int64_t t = 0;
  for (size_t i = 0; i < kRingDepth; ++i) {
    q.Push(TimePoint::FromNanos(++t), [&sum, ballast] { sum += ballast.bytes[0]; });
  }
  const double start = NowSeconds();
  for (size_t i = 0; i < ops; ++i) {
    t += 2;
    q.Push(TimePoint::FromNanos(t), [&sum, ballast] { sum += ballast.bytes[0]; });
    const auto doomed =
        q.Push(TimePoint::FromNanos(t + 1), [&sum, ballast] { sum += ballast.bytes[0]; });
    q.Cancel(doomed);
    q.NextTime();
    q.Pop().cb();
  }
  const double elapsed = NowSeconds() - start;
  while (!q.Empty()) {
    q.Pop().cb();
  }
  if (sum != ops + kRingDepth) {
    std::fprintf(stderr, "FATAL: cancel microbench fired %llu callbacks, expected %llu\n",
                 static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(ops + kRingDepth));
    std::abort();
  }
  return elapsed / static_cast<double>(ops) * 1e9;
}

// Long-timer re-arm churn: kRearmShortEvents short events stay pending;
// each iteration cancels and re-arms a timer 200 ms out (what every
// advancing ack does to the retransmit timer), then pops the earliest short
// event and schedules its replacement. The canceled timer records are due
// far in the future, so unlike ScheduleCancelPopNs (whose doomed event sits
// 1 ns behind the one it keeps and surfaces on the next pop) nothing but
// compaction ever removes them; `heap_records` shows whether the queue
// keeps them near the live count.
constexpr size_t kRearmShortEvents = 64;

struct RearmChurn {
  double ns_per_op = 0;
  size_t live = 0;          // Pending events at the end (short + timer).
  size_t heap_records = 0;  // Heap records at the end, stale included.
};

RearmChurn MeasureRearmChurn(size_t ops) {
  EventQueue q;
  uint64_t sum = 0;
  CaptureBallast ballast;
  ballast.bytes[0] = 1;
  for (size_t i = 0; i < kRearmShortEvents; ++i) {
    q.Push(TimePoint::FromNanos(static_cast<int64_t>(i) + 1),
           [&sum, ballast] { sum += ballast.bytes[0]; });
  }
  const Duration timeout = Duration::Millis(200);
  EventId timer = q.Push(TimePoint::Zero() + timeout, [] {});
  TimePoint now = TimePoint::Zero();
  const double start = NowSeconds();
  for (size_t i = 0; i < ops; ++i) {
    q.Cancel(timer);
    timer = q.Push(now + timeout, [] {});
    now = q.NextTime();
    auto entry = q.Pop();
    entry.cb();
    q.Push(entry.when + Duration::Nanos(static_cast<int64_t>(kRearmShortEvents)),
           [&sum, ballast] { sum += ballast.bytes[0]; });
  }
  const double elapsed = NowSeconds() - start;
  if (sum != ops) {
    std::fprintf(stderr, "FATAL: re-arm microbench fired %llu short events, expected %llu\n",
                 static_cast<unsigned long long>(sum), static_cast<unsigned long long>(ops));
    std::abort();
  }
  RearmChurn result;
  result.ns_per_op = elapsed / static_cast<double>(ops) * 1e9;
  result.live = q.size();
  result.heap_records = q.heap_records();
  return result;
}

// ---------------------------------------------------------------------------
// Sweep-scaling section: an 8-cell robustness grid (the smallest grid the
// parallel-identity acceptance bar names). Seeds differ per cell so the
// cells are distinct work, windows stay smoke-sized so CI finishes fast.
RobustnessConfig MakeScalingCell(size_t index) {
  RobustnessConfig config;
  config.seed = 1709 + index;
  config.rate_rps = 20000;
  config.warmup = Duration::Millis(50);
  config.measure = Duration::Millis(150);
  config.controller.veto_memory = Duration::Millis(25);
  config.controller.stale_after = Duration::Millis(30);
  config.fallback_enabled = (index % 2) == 0;
  if (index % 4 >= 2) {
    // Half the cells run a metadata blackout so the grid mixes light and
    // heavy cells like a real sweep.
    const TimePoint ms = TimePoint::Zero() + config.warmup;
    config.faults.Add(FaultKind::kMetaWithhold,
                      ms + Duration::MicrosF(config.measure.ToMicros() * 0.40),
                      Duration::MicrosF(config.measure.ToMicros() * 0.20));
  }
  return config;
}

// Order-independent fingerprint of what a cell computed, for the
// parallel-identity check.
uint64_t Fingerprint(const RobustnessResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.requests_completed);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(r.measured_mean_us));
  std::memcpy(&bits, &r.measured_mean_us, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &r.measured_p99_us, sizeof(bits));
  mix(bits);
  mix(r.controller_switches);
  mix(r.frozen_ticks);
  mix(r.health.demotions);
  return h;
}

struct SweepTiming {
  double wall_ms = 0;
  std::vector<uint64_t> fingerprints;
};

SweepTiming RunScalingSweep(size_t num_cells, int jobs) {
  SweepTiming timing;
  std::vector<RobustnessResult> results(num_cells);
  const double start = NowSeconds();
  SweepExecutor executor(jobs);
  executor.Run(
      num_cells, [&](size_t i) { results[i] = RunRobustnessExperiment(MakeScalingCell(i)); },
      [](size_t) {});
  timing.wall_ms = (NowSeconds() - start) * 1e3;
  timing.fingerprints.reserve(num_cells);
  for (const RobustnessResult& r : results) {
    timing.fingerprints.push_back(Fingerprint(r));
  }
  return timing;
}

// ---------------------------------------------------------------------------
// Shard-scaling section (DESIGN.md §16): one lean 100k-connection fleet cell
// run at several engine worker counts. The experiment config is byte-for-byte
// identical across the curve — only fabric.shards varies — so any fingerprint
// divergence is an engine bug, not measurement noise.
//
// The fleet runs on a 3-leaf x 2-spine fabric (DESIGN.md §17): with its
// servers round-robined over the racks, 2/3 of requests cross racks and
// rendezvous-hash across the spines, and every leaf and spine is its own
// shard domain — so the old single-switch serialization point is gone and
// the curve measures the engine, not one hot domain.
// One server per 25k connections, at least four, so the server side
// partitions too (one server's domain would serialize every request and
// cap the achievable speedup) and every server carries the 25 kRPS it does
// at 100k; at 250k, four servers drown at 62.5 kRPS apiece.
int FleetServers(int clients) { return std::max(4, clients / 25000); }

FleetExperimentConfig MakeShardScalingCell(bool smoke, int clients, int shards) {
  FleetExperimentConfig config;
  config.fabric = FleetExperimentConfig::DefaultFleetFabric(clients);
  config.fabric.shape = FabricShape::kLeafSpine;
  config.fabric.num_leaves = 3;
  config.fabric.num_spines = 2;
  config.fabric.trunk_link.bandwidth_bps = 100e9;
  config.fabric.num_servers = FleetServers(clients);
  config.fabric.shards = shards;
  config.total_rate_rps = clients;  // ~1 rps per connection: a mostly idle
                                    // production fleet, whose quiet
                                    // connections park their exchanges.
  config.warmup = Duration::Millis(10);
  config.measure = smoke ? Duration::Millis(50) : Duration::Millis(200);
  config.drain = Duration::Millis(10);
  config.collect_interval = Duration::Zero();  // Lean: no per-conn observers.
  config.exchange_interval = Duration::Millis(10);
  config.prefill_store = false;  // SET-only mix; prefill would add n*keys SETs.
  config.seed = 97;
  return config;
}

// Order-independent fingerprint of what the fleet cell computed.
uint64_t FleetFingerprint(const FleetExperimentResult& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(r.requests_completed);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(r.measured_mean_us));
  std::memcpy(&bits, &r.measured_mean_us, sizeof(bits));
  mix(bits);
  std::memcpy(&bits, &r.measured_p99_us, sizeof(bits));
  mix(bits);
  mix(r.retransmits);
  mix(r.switch_tail_drops);
  mix(r.events_fired);
  return h;
}

struct ShardPoint {
  int shards = 1;
  uint64_t events_fired = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  uint64_t queue_peak_max = 0;   // Largest per-domain event-queue high water.
  double queue_peak_mean = 0;    // Mean per-domain high water.
  uint64_t queue_domains = 0;
  uint64_t fingerprint = 0;
  // Whether the cell kept up with its load (see kMinServedFraction).
  double offered_krps = 0;
  double achieved_krps = 0;
  double measured_mean_us = 0;
};

// Share of the offered load every curve point must serve (perfbench's fleet
// cell allows the same 10%).
constexpr double kMinServedFraction = 0.9;

ShardPoint RunShardPoint(bool smoke, int clients, int shards) {
  const FleetExperimentResult r = RunFleetExperiment(MakeShardScalingCell(smoke, clients, shards));
  ShardPoint point;
  point.shards = shards;
  point.events_fired = r.events_fired;
  point.wall_seconds = r.wall_seconds;
  point.events_per_sec = r.wall_seconds > 0 ? static_cast<double>(r.events_fired) / r.wall_seconds
                                            : 0;
  point.queue_peak_max = r.queue_peak_max;
  point.queue_peak_mean = r.queue_peak_mean;
  point.queue_domains = r.queue_domains;
  point.fingerprint = FleetFingerprint(r);
  point.offered_krps = r.offered_krps;
  point.achieved_krps = r.achieved_krps;
  point.measured_mean_us = r.measured_mean_us;
  return point;
}

// ---------------------------------------------------------------------------
// Connection-memory section: resident-set growth while building a star
// fabric and then connecting every client — the per-connection engine
// footprint (host + NIC + links + switch port, then the two endpoints with
// their packed estimators) that bounds how many connections fit in a
// 1M-connection cell.
uint64_t CurrentRssBytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  long size_pages = 0;
  long rss_pages = 0;
  const int got = std::fscanf(f, "%ld %ld", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) {
    return 0;
  }
  return static_cast<uint64_t>(rss_pages) * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
#else
  return 0;  // Unsupported platform: the JSON reports measured=0.
#endif
}

struct MemoryPoint {
  uint64_t connections = 0;
  bool measured = false;
  double fabric_bytes_per_conn = 0;    // Host + NIC + links + switch port.
  double endpoint_bytes_per_conn = 0;  // Both TCP endpoints + estimator.

  double total_bytes_per_conn() const { return fabric_bytes_per_conn + endpoint_bytes_per_conn; }
};

// Per-connection memory budget. Far above it (at ~175 KB/connection) the
// 100k-connection shard curve is OOM-killed on a 16 GB runner, so the
// memory phase aborts with a message first. Empty per-component FIFOs
// allocate nothing (src/sim/ring.h) and domain queues grow on demand in
// plain vectors, which put a lean connection near 7.5 KB.
constexpr double kMaxBytesPerConnection = 8 * 1024;

MemoryPoint MeasureConnectionMemory(bool smoke) {
  MemoryPoint point;
  const int n = smoke ? 16384 : 65536;
  point.connections = static_cast<uint64_t>(n);
  const uint64_t rss_start = CurrentRssBytes();
  FabricConfig fabric = FleetExperimentConfig::DefaultFleetFabric(n);
  fabric.num_servers = 4;
  FabricTopology topo(fabric);
  const uint64_t rss_fabric = CurrentRssBytes();
  const TcpConfig client_tcp = RedisExperimentConfig::DefaultClientTcp();
  const TcpConfig server_tcp = RedisExperimentConfig::DefaultServerTcp();
  for (int i = 0; i < n; ++i) {
    topo.Connect(i, i % fabric.num_servers, static_cast<uint64_t>(i + 1), client_tcp, server_tcp);
  }
  const uint64_t rss_connected = CurrentRssBytes();
  if (rss_start > 0 && rss_connected >= rss_fabric && rss_fabric >= rss_start) {
    point.measured = true;
    point.fabric_bytes_per_conn = static_cast<double>(rss_fabric - rss_start) / n;
    point.endpoint_bytes_per_conn = static_cast<double>(rss_connected - rss_fabric) / n;
  }
  return point;
}

// Resident-set high-water mark of this process (VmHWM); 0 where
// unsupported.
uint64_t PeakRssBytes() {
#ifdef __linux__
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
      break;
    }
  }
  std::fclose(f);
  return static_cast<uint64_t>(kb) * 1024;
#else
  return 0;
#endif
}

// Run-memory cells: what a connection costs while a fleet cell runs, apps
// and in-flight state included, where MeasureConnectionMemory counts
// set-up only. Each is the shard curve's smoke cell (10 + 50 + 10 ms) on
// the classic engine (shards = 0), in full mode too, so the gate reads
// the same cell everywhere. A longer window reads higher: a connection
// that has carried a request holds state an idle one has not allocated.
struct RunMemoryPoint {
  uint64_t connections = 0;
  uint64_t servers = 0;
  bool measured = false;
  uint64_t baseline_bytes = 0;  // Resident set after trimming free memory.
  uint64_t peak_rss_bytes = 0;  // VmHWM after the cell.
  double run_seconds = 0;       // Around the simulator run.
  double call_seconds = 0;      // The whole call: set-up, run and teardown.
  double offered_krps = 0;
  double achieved_krps = 0;

  double bytes_per_conn() const {
    return measured ? static_cast<double>(peak_rss_bytes - baseline_bytes) /
                          static_cast<double>(connections)
                    : 0;
  }
};

// Run-peak budget per connection at 100k. A LancetClient latency histogram
// that assigned all 1,002 buckets up front put the cell at ~17.9 KB.
constexpr double kMaxRunBytesPerConnection = 10 * 1024;
// The 1M-connection cell (full mode) must fit a 16 GB box with headroom.
constexpr uint64_t kMaxMillionPeakRssBytes = 12'000'000'000;

RunMemoryPoint MeasureRunMemory(int clients) {
  RunMemoryPoint point;
  point.connections = static_cast<uint64_t>(clients);
#ifdef __linux__
  // Hand free heap pages back first (as perfbench's ReleaseFreeMemory
  // does), so the baseline counts live memory only.
  malloc_trim(0);
#endif
  point.baseline_bytes = CurrentRssBytes();
  const uint64_t peak_before = PeakRssBytes();
  const FleetExperimentConfig config =
      MakeShardScalingCell(/*smoke=*/true, clients, /*shards=*/0);
  point.servers = static_cast<uint64_t>(config.fabric.num_servers);
  const double start = NowSeconds();
  const FleetExperimentResult r = RunFleetExperiment(config);
  point.call_seconds = NowSeconds() - start;
  point.peak_rss_bytes = PeakRssBytes();
  point.run_seconds = r.wall_seconds;
  point.offered_krps = r.offered_krps;
  point.achieved_krps = r.achieved_krps;
  // A peak no higher than before the cell was set by earlier work, so it
  // says nothing about this cell.
  point.measured = point.baseline_bytes > 0 && point.peak_rss_bytes > peak_before;
  std::printf(
      "run memory (%d connections, %d servers, classic engine): peak %.0f MB, %.0f B/conn; run "
      "%.2f s of a %.2f s call; served %.1f of %.1f kRPS\n",
      clients, config.fabric.num_servers, static_cast<double>(point.peak_rss_bytes) / 1e6,
      point.bytes_per_conn(), point.run_seconds, point.call_seconds, point.achieved_krps,
      point.offered_krps);
  std::fflush(stdout);
  if (point.baseline_bytes > 0 && !point.measured) {
    std::fprintf(stderr, "FATAL: VmHWM did not rise across the %d-connection run-memory cell\n",
                 clients);
    std::abort();
  }
  if (point.achieved_krps < kMinServedFraction * point.offered_krps) {
    std::fprintf(stderr, "FATAL: %d-connection run-memory cell served %.1f of %.1f kRPS\n",
                 clients, point.achieved_krps, point.offered_krps);
    std::abort();
  }
  return point;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  args.jobs = 4;
  args.shards = 4;
  args.min_shards = 1;
  args.json_path = "BENCH_engine.json";
  if (!ParseSweepArgs(argc, argv, kSweepSmoke | kSweepJobs | kSweepShards, &args) ||
      !ProbeJsonOutput(args.json_path)) {
    return 1;
  }
  const bool smoke = args.smoke;
  const int jobs = args.jobs;
  const int shards = args.shards;

  PrintBanner("Engine perf: event-queue hot path + sweep scaling");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency: %u, scaling jobs: %d%s\n\n", hw, jobs,
              smoke ? " (smoke)" : "");

  // --- 1. Event-queue microbench ---
  const size_t ops = smoke ? 400000 : 2000000;
  SchedulePopNs(ops / 10);  // Warm the allocator and caches once.
  const double pop_ns = SchedulePopNs(ops);
  const double cancel_ns = ScheduleCancelPopNs(ops);
  Table micro({"workload", "ns", "Mev_s"});
  micro.Row().Cell("schedule+pop").Num(pop_ns, 1).Num(1e3 / pop_ns, 2);
  micro.Row().Cell("sched+cancel+pop").Num(cancel_ns, 1).Num(1e3 / cancel_ns, 2);
  micro.Print();
  const RearmChurn rearm = MeasureRearmChurn(ops);
  std::printf("re-arm churn: %.1f ns/op, %zu live events held in %zu heap records\n",
              rearm.ns_per_op, rearm.live, rearm.heap_records);

  // --- 2. Cell wall-clock ---
  const double cell_start = NowSeconds();
  const RobustnessResult cell = RunRobustnessExperiment(MakeScalingCell(2));
  const double cell_wall_ms = (NowSeconds() - cell_start) * 1e3;
  std::printf("\nrobustness cell (meta_withhold, 200 ms sim): %.1f ms wall, %llu requests\n",
              cell_wall_ms, static_cast<unsigned long long>(cell.requests_completed));

  // --- 3. Sweep scaling ---
  const size_t num_cells = 8;
  SweepTiming serial = RunScalingSweep(num_cells, 1);
  SweepTiming parallel = RunScalingSweep(num_cells, jobs);
  bool identical = serial.fingerprints == parallel.fingerprints;
  double sweep_speedup = parallel.wall_ms > 0 ? serial.wall_ms / parallel.wall_ms : 0;
  // Same single-retry policy as the queue ratios: CI gates the speedup at
  // 2.5x on >= 4-core runners, so only retry where the gate applies.
  bool sweep_retried = false;
  if (identical && hw >= 4 && jobs >= 2 && sweep_speedup < 2.5) {
    sweep_retried = true;
    const SweepTiming serial2 = RunScalingSweep(num_cells, 1);
    const SweepTiming parallel2 = RunScalingSweep(num_cells, jobs);
    const bool identical2 = serial2.fingerprints == parallel2.fingerprints &&
                            serial2.fingerprints == serial.fingerprints;
    const double speedup2 = parallel2.wall_ms > 0 ? serial2.wall_ms / parallel2.wall_ms : 0;
    identical = identical && identical2;
    if (identical2 && speedup2 > sweep_speedup) {
      serial = serial2;
      parallel = parallel2;
      sweep_speedup = speedup2;
    }
  }
  std::printf(
      "\nsweep scaling (%zu cells): jobs=1 %.0f ms, jobs=%d %.0f ms -> %s, results %s%s\n",
      num_cells, serial.wall_ms, jobs, parallel.wall_ms, FormatFactor(sweep_speedup).c_str(),
      identical ? "identical" : "DIVERGED", sweep_retried ? " (retried)" : "");
  if (!identical) {
    std::fprintf(stderr, "FATAL: parallel sweep changed cell results\n");
    std::abort();
  }

  // --- 4. Connection memory ---
  // Measured before the shard cells: RSS only grows, so a later measurement
  // would be masked by allocator reuse of the 100k-connection runs.
  const MemoryPoint memory = MeasureConnectionMemory(smoke);
  if (memory.measured) {
    std::printf(
        "\nconnection memory (%llu connections): fabric %.0f B/conn, endpoints %.0f B/conn, "
        "total %.0f B/conn\n",
        static_cast<unsigned long long>(memory.connections), memory.fabric_bytes_per_conn,
        memory.endpoint_bytes_per_conn, memory.total_bytes_per_conn());
    if (memory.total_bytes_per_conn() > kMaxBytesPerConnection) {
      std::fprintf(stderr, "FATAL: %.0f B/connection exceeds the %.0f B budget\n",
                   memory.total_bytes_per_conn(), kMaxBytesPerConnection);
      std::abort();
    }
  } else {
    std::printf("\nconnection memory: not measurable on this platform\n");
  }
  std::vector<RunMemoryPoint> run_memory{MeasureRunMemory(100000)};
  if (run_memory.front().bytes_per_conn() > kMaxRunBytesPerConnection) {
    std::fprintf(stderr, "FATAL: %.0f B/connection at the run peak exceeds the %.0f B budget\n",
                 run_memory.front().bytes_per_conn(), kMaxRunBytesPerConnection);
    std::abort();
  }
  if (!smoke) {
    run_memory.push_back(MeasureRunMemory(1000000));
    if (run_memory.back().peak_rss_bytes > kMaxMillionPeakRssBytes) {
      std::fprintf(stderr, "FATAL: the 1M-connection cell peaked at %.0f MB, over %.0f MB\n",
                   static_cast<double>(run_memory.back().peak_rss_bytes) / 1e6,
                   static_cast<double>(kMaxMillionPeakRssBytes) / 1e6);
      std::abort();
    }
  }

  // --- 5. Shard scaling ---
  // Below 4 hardware threads the 100k-connection cell both takes minutes
  // and cannot show a speedup (the workers just time-slice one core), so
  // the curve shrinks to a small identity-check-sized fleet and the JSON
  // says why — CI's monotone-curve gate skips itself when skipped_reason
  // is set.
  int fleet_clients = smoke ? 100000 : 250000;
  std::string fleet_skipped_reason;
  if (hw < 4) {
    fleet_clients = 8192;
    fleet_skipped_reason = "hardware_concurrency < 4: shard curve shrunk to 8192 connections "
                           "(identity check only, no speedup expected)";
  }
  std::vector<int> shard_counts{1};
  if (shards >= 2) {
    shard_counts.push_back(2);
  }
  if (shards > 2) {
    shard_counts.push_back(shards);
  }
  std::vector<ShardPoint> curve;
  curve.reserve(shard_counts.size());
  for (const int s : shard_counts) {
    curve.push_back(RunShardPoint(smoke, fleet_clients, s));
  }
  bool shard_identical = true;
  for (const ShardPoint& point : curve) {
    shard_identical = shard_identical && point.fingerprint == curve.front().fingerprint;
  }
  double shard_speedup =
      curve.front().events_per_sec > 0 ? curve.back().events_per_sec / curve.front().events_per_sec
                                       : 0;
  bool shard_retried = false;
  if (shard_identical && hw >= 4 && curve.size() >= 2 && shard_speedup < 2.5) {
    shard_retried = true;
    const ShardPoint base2 = RunShardPoint(smoke, fleet_clients, shard_counts.front());
    const ShardPoint top2 = RunShardPoint(smoke, fleet_clients, shard_counts.back());
    shard_identical = shard_identical && base2.fingerprint == curve.front().fingerprint &&
                      top2.fingerprint == curve.front().fingerprint;
    const double speedup2 =
        base2.events_per_sec > 0 ? top2.events_per_sec / base2.events_per_sec : 0;
    if (shard_identical && speedup2 > shard_speedup) {
      curve.front() = base2;
      curve.back() = top2;
      shard_speedup = speedup2;
    }
  }
  Table shard_table({"shards", "events", "wall_s", "Mev_s", "maxq", "meanq", "speedup",
                     "offered_krps", "served_krps", "mean_us"});
  for (const ShardPoint& point : curve) {
    shard_table.Row()
        .Int(point.shards)
        .Int(static_cast<int64_t>(point.events_fired))
        .Num(point.wall_seconds, 2)
        .Num(point.events_per_sec / 1e6, 2)
        .Int(static_cast<int64_t>(point.queue_peak_max))
        .Num(point.queue_peak_mean, 0)
        .Cell(FormatFactor(point.events_per_sec / curve.front().events_per_sec))
        .Num(point.offered_krps, 1)
        .Num(point.achieved_krps, 1)
        .Num(point.measured_mean_us, 1);
  }
  std::printf("\nshard scaling (lean leaf-spine fleet cell, %d connections): results %s%s%s\n",
              fleet_clients, shard_identical ? "identical" : "DIVERGED",
              shard_retried ? " (retried)" : "",
              fleet_skipped_reason.empty() ? "" : " (shrunk: <4 cores)");
  shard_table.Print();
  if (!shard_identical) {
    std::fprintf(stderr, "FATAL: sharding changed fleet cell results\n");
    std::abort();
  }
  for (const ShardPoint& point : curve) {
    if (point.achieved_krps < kMinServedFraction * point.offered_krps) {
      std::fflush(stdout);  // Keep the curve table when stdout is a file.
      std::fprintf(stderr, "FATAL: fleet cell at shards=%d served %.1f of %.1f offered kRPS\n",
                   point.shards, point.achieved_krps, point.offered_krps);
      std::abort();
    }
  }

  const JsonOutputFile out(args.json_path);
  if (out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(out.get());
  json.BeginObject();
  json.KV("bench", std::string("engine_perf"));
  json.KV("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  json.KV("hardware_concurrency", static_cast<uint64_t>(hw));
  json.Key("queue").BeginObject();
  json.KV("ops", static_cast<uint64_t>(ops));
  json.KV("ring_depth", static_cast<uint64_t>(kRingDepth));
  json.KV("schedule_pop_ns", pop_ns, 2);
  json.KV("schedule_pop_events_per_sec", 1e9 / pop_ns, 0);
  json.KV("schedule_cancel_pop_ns", cancel_ns, 2);
  json.KV("rearm_ns", rearm.ns_per_op, 2);
  json.KV("rearm_live", static_cast<uint64_t>(rearm.live));
  json.KV("rearm_heap_records", static_cast<uint64_t>(rearm.heap_records));
  json.EndObject();
  json.Key("cell").BeginObject();
  json.KV("wall_ms", cell_wall_ms, 2);
  json.KV("requests_completed", cell.requests_completed);
  json.EndObject();
  json.Key("sweep").BeginObject();
  json.KV("cells", static_cast<uint64_t>(num_cells));
  json.KV("jobs", static_cast<int64_t>(jobs));
  json.KV("jobs1_wall_ms", serial.wall_ms, 2);
  json.KV("jobsN_wall_ms", parallel.wall_ms, 2);
  json.KV("speedup", sweep_speedup, 3);
  json.KV("results_identical", static_cast<uint64_t>(identical ? 1 : 0));
  json.KV("retried", static_cast<uint64_t>(sweep_retried ? 1 : 0));
  json.EndObject();
  json.Key("memory").BeginObject();
  json.KV("measured", static_cast<uint64_t>(memory.measured ? 1 : 0));
  json.KV("connections", memory.connections);
  json.KV("fabric_bytes_per_connection", memory.fabric_bytes_per_conn, 0);
  json.KV("endpoint_bytes_per_connection", memory.endpoint_bytes_per_conn, 0);
  json.KV("total_bytes_per_connection", memory.total_bytes_per_conn(), 0);
  json.EndObject();
  json.Key("run_memory").BeginArray();
  for (const RunMemoryPoint& point : run_memory) {
    json.BeginObject();
    json.KV("connections", point.connections);
    json.KV("servers", point.servers);
    json.KV("measured", static_cast<uint64_t>(point.measured ? 1 : 0));
    json.KV("baseline_bytes", point.baseline_bytes);
    json.KV("peak_rss_bytes", point.peak_rss_bytes);
    json.KV("bytes_per_connection", point.bytes_per_conn(), 0);
    json.KV("run_seconds", point.run_seconds, 3);
    json.KV("call_seconds", point.call_seconds, 3);
    json.KV("offered_krps", point.offered_krps, 1);
    json.KV("achieved_krps", point.achieved_krps, 1);
    json.EndObject();
  }
  json.EndArray();
  json.Key("fleet").BeginObject();
  json.KV("connections", static_cast<uint64_t>(fleet_clients));
  json.KV("servers", static_cast<uint64_t>(FleetServers(fleet_clients)));
  json.KV("fabric", std::string("leafspine"));
  json.KV("leaves", static_cast<uint64_t>(3));
  json.KV("spines", static_cast<uint64_t>(2));
  json.KV("top_shards", static_cast<int64_t>(shard_counts.back()));
  json.KV("results_identical", static_cast<uint64_t>(shard_identical ? 1 : 0));
  json.KV("retried", static_cast<uint64_t>(shard_retried ? 1 : 0));
  json.KV("speedup", shard_speedup, 3);
  json.Key("skipped_reason");
  if (fleet_skipped_reason.empty()) {
    json.Null();
  } else {
    json.String(fleet_skipped_reason);
  }
  json.Key("curve").BeginArray();
  for (const ShardPoint& point : curve) {
    json.BeginObject();
    json.KV("shards", static_cast<int64_t>(point.shards));
    json.KV("events_fired", point.events_fired);
    json.KV("wall_seconds", point.wall_seconds, 3);
    json.KV("events_per_sec", point.events_per_sec, 0);
    json.KV("queue_peak_max", point.queue_peak_max);
    json.KV("queue_peak_mean", point.queue_peak_mean, 1);
    json.KV("queue_domains", point.queue_domains);
    json.KV("offered_krps", point.offered_krps, 1);
    json.KV("achieved_krps", point.achieved_krps, 1);
    json.KV("measured_mean_us", point.measured_mean_us, 1);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.EndObject();
  json.Finish();
  std::printf("\nwrote %s\n", args.json_path);
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
