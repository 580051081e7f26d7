// The repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>]
//
// --trace 0 measures the end-to-end metrics: set-up passes and whole
// workload passes, interleaved, until --seconds have passed, reported as
// medians. --trace 1 is the separate per-layer run: a census set-up, an
// untraced pass, the engine view of the workload, a traced pass counting
// trace records, the single-call micro-timings, then untraced and traced
// passes in pairs for the tracing overhead until --seconds have passed
// (the trace must not change any result). Every
// pass checks each cell's outputs and that repeated cells of one seed
// reproduce their result fingerprints. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"
#include "perfbench/probes.h"
#include "perfbench/workloads.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"wall_s", "s"},         {"setup_s", "s"},       {"sim_speed", "sim_s/s"},
    {"peak_rss_mb", "MB"},   {"bytes_per_conn", "B"},
};

// Zero where the workload bypasses the layer (README.md lists which).
constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},
    {"sim.queue_push_pop_ns", "ns"},
    {"sim.queue_cancel_ns", "ns"},
    {"sim.queue_peak_max", "count"},
    {"sim.queue_peak_mean", "count"},
    {"sim.domains", "count"},
    {"sim.cross_msg_ns", "ns"},
    {"sim.shard_speedup", "x"},
    {"net.packets_per_req", "count"},
    {"net.ecmp_route_ns", "ns"},
    {"net.switch_drops", "count"},
    {"net.forwarding_misses", "count"},
    {"net.impair_drops", "count"},
    {"tcp.retransmits", "count"},
    {"tcp.sack_retransmits", "count"},
    {"tcp.rto_fires", "count"},
    {"tcp.tlp_probes", "count"},
    {"tcp.goodput_mbps", "Mb/s"},
    {"tcp.codec_ns", "ns"},
    {"tcp.nagle_holds", "count"},
    {"tcp.delack_fires", "count"},
    {"tcp.resp_per_packet", "count"},
    {"tcp.connect_us", "us"},
    {"core.exchanges", "count"},
    {"core.track_ns", "ns"},
    {"core.health_demotions", "count"},
    {"core.time_to_recover_ms", "ms"},
    {"core.est_err_pct", "%"},
    {"apps.requests", "count"},
    {"apps.achieved_krps", "krps"},
    {"apps.reconnects", "count"},
    {"testbed.build_s", "s"},
    {"testbed.connect_s", "s"},
    {"testbed.teardown_s", "s"},
    {"mem.tcp_endpoint_bytes", "B"},
    {"mem.connection_estimator_bytes", "B"},
    {"mem.endpoint_queues_bytes", "B"},
    {"mem.host_bytes", "B"},
    {"mem.slack_per_conn", "B"},
    {"obs.trace_packet", "count"},
    {"obs.trace_syscall", "count"},
    {"obs.trace_queue", "count"},
    {"obs.trace_estimator", "count"},
    {"obs.trace_health", "count"},
    {"obs.trace_controller", "count"},
    {"obs.trace_diag", "count"},
    {"obs.trace_overhead", "x"},
};

// The fewest set-ups and whole passes a --trace 0 run makes, whatever
// --seconds says. A set-up precedes every pass, so both sample the whole run.
constexpr int kMinSetups = 5;
constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds >= 1 &&
         (args->trace == 0 || args->trace == 1);
}

// Cells attempted and failed, with the reasons printed as they happen.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // First fingerprint seen per cell name: repeats of one seed must match.
  std::map<std::string, uint64_t> fingerprints;

  void Count(const PassOutcome& pass, const char* label) {
    for (const CellOutcome& cell : pass.cells) {
      ++attempted;
      std::string failure = cell.failure;
      const auto [it, fresh] = fingerprints.emplace(cell.name, cell.fingerprint);
      if (!fresh && it->second != cell.fingerprint) {
        failure += failure.empty() ? "" : "; ";
        failure += "result fingerprint differs from the first run of this seed";
      }
      if (!failure.empty()) {
        ++failed;
        std::printf("FAILED %s cell %s: %s\n", label, cell.name.c_str(), failure.c_str());
      }
    }
  }
};

void PrintMachine(const MachineShape& m) {
  std::printf("machine: nproc=%d hardware_concurrency=%u cgroup_cpu_max=%s mem_total_mb=%.0f "
              "cgroup_memory_max=%s\n",
              m.nproc, m.hardware_concurrency, m.cgroup_cpu_max.c_str(), m.mem_total_mb,
              m.cgroup_memory_max.c_str());
  std::printf("build: compiler=%s build_type=%s flags=%s\n", m.compiler.c_str(),
              m.build_type.c_str(), m.cxx_flags.c_str());
}

template <size_t N>
void PrintResult(const MetricSpec (&specs)[N], const Counters& values, const Tally& tally) {
  std::printf("\n%-34s %22s  %s\n", "metric", "value", "unit");
  for (const MetricSpec& spec : specs) {
    std::printf("%-34s %22.6f  %s\n", spec.name, values.at(spec.name), spec.unit);
  }
  std::printf("%-34s %22.6f  %s\n", "cell_fail_ratio",
              tally.attempted > 0 ? static_cast<double>(tally.failed) / tally.attempted : 0.0,
              "ratio");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              tally.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (size_t i = 0; i < N; ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                specs[i].name, values.at(specs[i].name), specs[i].unit);
  }
  std::printf("}}\n");
}

// --trace 0: set-up and whole passes, interleaved, until the budget ends.
int RunEndToEnd(Workload* workload, const Args& args) {
  SpanLog spans;
  Tally tally;
  std::vector<double> setup_s;
  std::vector<double> bytes_per_conn;
  std::vector<PassOutcome> passes;
  const double deadline = NowSeconds() + args.seconds;
  const auto more_passes = [&] {
    return static_cast<int>(passes.size()) < kMinPasses || NowSeconds() < deadline;
  };
  while (static_cast<int>(setup_s.size()) < kMinSetups || more_passes()) {
    const SetupOutcome setup = workload->Setup(&spans);
    setup_s.push_back(setup.setup_s);
    bytes_per_conn.push_back(setup.BytesPerConnection());
    if (more_passes()) {
      passes.push_back(workload->Pass(&spans, nullptr));
      tally.Count(passes.back(), "pass");
      std::printf("pass %zu: wall %.4f s, run phase %.4f s\n", passes.size(), passes.back().wall_s,
                  passes.back().run_s);
    }
  }

  const double setup_median = Median(setup_s);
  std::vector<double> wall_s;
  std::vector<double> sim_speed;
  for (const PassOutcome& pass : passes) {
    wall_s.push_back(pass.wall_s);
    // Two-host experiments do not report their run phase; the pass minus the
    // zero-length pass is the run phase there.
    const double run_s = pass.run_s > 0 ? pass.run_s : pass.wall_s - setup_median;
    sim_speed.push_back(pass.sim_s / run_s);
  }
  Counters metrics;
  metrics["wall_s"] = Median(wall_s);
  metrics["setup_s"] = setup_median;
  metrics["sim_speed"] = Median(sim_speed);
  metrics["peak_rss_mb"] = static_cast<double>(PeakRssBytes()) / 1e6;
  metrics["bytes_per_conn"] = Median(bytes_per_conn);
  std::printf("%zu passes, %zu set-ups\n", passes.size(), setup_s.size());
  PrintResult(kEndToEnd, metrics, tally);
  return 0;
}

// Tallies trace records by category after every cell, then clears the
// recorder, so it only ever holds one cell's records.
class TraceTally {
 public:
  TraceTally() : recorder_(kCapacity, e2e::kTraceAll) {
    for (size_t c = 0; c < e2e::kNumTraceCategories; ++c) {
      counts_[Name(static_cast<e2e::TraceCategory>(c))] = 0;
    }
  }
  // Hook() hands out callbacks that hold `this`.
  TraceTally(const TraceTally&) = delete;
  TraceTally& operator=(const TraceTally&) = delete;
  e2e::TraceRecorder* recorder() { return &recorder_; }
  AfterCell Hook() {
    return [this] {
      for (const e2e::TraceEvent& event : recorder_.Events()) {
        counts_[Name(event.category)] += 1;
      }
      lost_ += recorder_.overwritten();
      recorder_.Clear();
    };
  }
  const Counters& counts() const { return counts_; }
  uint64_t lost() const { return lost_; }

 private:
  // Holds the largest single cell's records: about 4.3 million, from the
  // fleet cell on the classic engine. Pages are touched only as filled.
  static constexpr size_t kCapacity = size_t{1} << 23;
  static std::string Name(e2e::TraceCategory c) {
    return std::string("obs.trace_") + e2e::TraceCategoryName(c);
  }
  e2e::TraceRecorder recorder_;
  Counters counts_;
  uint64_t lost_ = 0;
};

// --trace 1: the per-layer numbers.
int RunLayers(Workload* workload, const Args& args) {
  SpanLog spans;
  Tally tally;
  Counters metrics;
  for (const MetricSpec& spec : kPerLayer) {
    metrics[spec.name] = 0;
  }

  const double deadline = NowSeconds() + args.seconds;
  const SetupOutcome setup = workload->Setup(&spans);
  const PassOutcome plain = workload->Pass(&spans, nullptr);
  tally.Count(plain, "untraced");
  // Before the traced pass, so the engine numbers are untraced ones.
  const EngineView engine = workload->Engine(&spans);
  ++tally.attempted;
  if (!engine.shard_identical) {
    ++tally.failed;
    std::printf("FAILED engine: one worker and %d workers computed different results\n",
                FleetWorkers());
  }
  // Every traced pass must reproduce the untraced fingerprints: tracing is
  // passive.
  auto trace = std::make_unique<TraceTally>();
  {
    e2e::ScopedTrace bind(trace->recorder());
    tally.Count(workload->Pass(&spans, trace->Hook()), "traced");
  }
  {
    auto replay = std::make_unique<TraceTally>();
    e2e::ScopedTrace bind(replay->recorder());
    if (workload->ReplayOnClassicEngine(&spans, replay->Hook())) {
      trace = std::move(replay);
    }
  }
  ++tally.attempted;
  if (trace->lost() > 0) {
    std::printf("FAILED trace count: the recorder overwrote %llu records\n",
                static_cast<unsigned long long>(trace->lost()));
    ++tally.failed;
  }
  for (const auto& [name, value] : plain.layers) {
    metrics[name] = value;
  }
  for (const auto& [name, value] : trace->counts()) {
    metrics[name] = value;
  }

  metrics["sim.events"] = engine.events;
  metrics["sim.events_per_s"] = engine.events / engine.run_s;
  metrics["sim.queue_peak_max"] = engine.queue_peak_max;
  metrics["sim.queue_peak_mean"] = engine.queue_peak_mean;
  metrics["sim.domains"] = engine.domains;
  metrics["sim.shard_speedup"] = engine.shard_speedup;
  // The queue micro-timings run at the depth the workload's queues reach:
  // the one queue's peak on a single-domain engine, a typical domain's
  // peak on the sharded one.
  const double depth = engine.domains > 1 ? engine.queue_peak_mean : engine.queue_peak_max;
  const size_t queue_depth = static_cast<size_t>(std::max(1.0, std::round(depth)));
  std::printf("queue micro-timings at depth %zu\n", queue_depth);
  {
    ScopedSpan span(&spans, "probes");
    metrics["sim.queue_push_pop_ns"] = QueuePushPopNs(queue_depth);
    metrics["sim.queue_cancel_ns"] = QueueCancelNs(queue_depth);
    metrics["sim.cross_msg_ns"] = CrossMessageNs();
    metrics["net.ecmp_route_ns"] = EcmpRouteNs();
    metrics["tcp.codec_ns"] = CodecNs();
    metrics["core.track_ns"] = TrackNs();
  }

  // Untraced and traced passes in pairs until --seconds have passed: the
  // overhead of recording (into a small ring, with no tallying) and more
  // passivity checks.
  std::vector<double> overheads;
  do {
    const PassOutcome untraced = workload->Pass(&spans, nullptr);
    tally.Count(untraced, "untraced");
    e2e::TraceRecorder recorder;
    PassOutcome traced;
    {
      e2e::ScopedTrace bind(&recorder);
      traced = workload->Pass(&spans, nullptr);
    }
    tally.Count(traced, "traced");
    overheads.push_back(traced.wall_s / untraced.wall_s);
  } while (NowSeconds() < deadline);
  metrics["obs.trace_overhead"] = Median(overheads);

  const double connections = setup.census.connections;
  metrics["tcp.connect_us"] = setup.connect_s / connections * 1e6;
  metrics["testbed.build_s"] = setup.build_s;
  metrics["testbed.connect_s"] = setup.connect_s;
  metrics["testbed.teardown_s"] = setup.teardown_s;
  metrics["mem.tcp_endpoint_bytes"] = setup.census.endpoint_bytes;
  metrics["mem.connection_estimator_bytes"] = setup.census.estimator_bytes;
  metrics["mem.endpoint_queues_bytes"] = setup.census.queues_bytes;
  metrics["mem.host_bytes"] = setup.census.host_bytes;
  metrics["mem.slack_per_conn"] =
      (setup.rss_build_bytes + setup.rss_connect_bytes - setup.census.Explained()) / connections;
  std::printf("memory census: rss build %.0f B + connect %.0f B for %.0f connections; "
              "sizeof x count explains %.0f B\n",
              setup.rss_build_bytes, setup.rss_connect_bytes, connections,
              setup.census.Explained());

  if (!args.spans_path.empty() && !spans.Write(args.spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
    return 1;
  }
  PrintResult(kPerLayer, metrics, tally);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--spans <path>]\n");
    return 2;
  }
  const MachineShape machine = ReadMachineShape();
  PrintMachine(machine);
  if (!machine.optimized) {
    std::fprintf(stderr, "perfbench: refusing to measure a %s build without optimization\n",
                 machine.build_type.c_str());
    return 2;
  }
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload=%s seed=%llu seconds=%d trace=%d fleet_workers=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace, FleetWorkers());
  std::fflush(stdout);
  return args.trace == 0 ? RunEndToEnd(workload.get(), args) : RunLayers(workload.get(), args);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
