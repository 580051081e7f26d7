// The benchmark's named workloads. Each one is a fixed list of simulator
// cells built from the run's seed and driven through the repository's public
// experiment functions; the benchmark never instruments src/.
//
//   paper_pair       two-host Redis/Lancet cells (Nagle off / on / dynamic)
//                    plus one robustness cell (metadata withhold + server
//                    crash/reconnect) on the classic single-domain engine.
//   lossy_bulk       bulk RunRecoveryExperiment transfers over an impaired
//                    1 Gbps two-host path, cumack/Reno vs sack_rack/CUBIC.
//   fleet_leafspine  a lean 3-leaf x 2-spine fleet with one client host per
//                    connection, run on the sharded engine.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/harness.h"

namespace perfbench {

// One cell's verdict: its result fingerprint and its own output checks.
struct CellOutcome {
  std::string name;
  uint64_t fingerprint = 0;
  std::string failure;  // Empty when every check passed.
};

// One workload pass: every cell once, set-up through teardown.
struct PassOutcome {
  double wall_s = 0;  // Whole pass.
  double run_s = 0;   // Run phase alone, where the experiment reports it (else 0).
  double sim_s = 0;   // Simulated seconds covered by the pass.
  std::vector<CellOutcome> cells;
  Counters layers;  // Per-layer counters read from the cells' results.
};

// sizeof x count of the per-connection components a set-up allocates.
// ConnectionEstimator and EndpointQueues live inside TcpEndpoint, so only
// endpoints and hosts add up to the explained bytes.
struct Census {
  double connections = 0;
  double endpoint_bytes = 0;
  double estimator_bytes = 0;
  double queues_bytes = 0;
  double host_bytes = 0;
  double Explained() const { return endpoint_bytes + host_bytes; }
};

// One set-up measurement. Everything but setup_s is per set-up unit: one
// two-host topology with its connection, or the whole fleet.
struct SetupOutcome {
  double setup_s = 0;  // The setup_s sample.
  // Topology build, Connect calls and teardown, as timed around
  // FabricTopology construction, Connect and destruction.
  double build_s = 0;
  double connect_s = 0;
  double teardown_s = 0;
  // Staged resident-set growth: after construction, then after Connect.
  double rss_build_bytes = 0;
  double rss_connect_bytes = 0;
  Census census;
  double BytesPerConnection() const {
    return census.connections > 0 ? (rss_build_bytes + rss_connect_bytes) / census.connections
                                  : 0;
  }
};

// What the traced run measures beyond the pass itself: the sim layer as
// seen on a cell whose Simulator the benchmark can read.
struct EngineView {
  double events = 0;
  double run_s = 0;
  double queue_peak_max = 0;
  double queue_peak_mean = 0;
  double domains = 0;
  double shard_speedup = 0;  // Workers / 1 worker; 0 where there are no domains.
  bool shard_identical = true;
};

// Called after every cell of a pass (the traced run tallies and clears its
// trace recorder there, so one recorder never has to hold a whole pass).
using AfterCell = std::function<void()>;

class Workload {
 public:
  Workload() = default;
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual SetupOutcome Setup(SpanLog* spans) = 0;
  virtual PassOutcome Pass(SpanLog* spans, const AfterCell& after_cell) = 0;
  // Engine counters for the traced run; may run extra cells.
  virtual EngineView Engine(SpanLog* spans) = 0;
  // Trace records are counted on a traced Pass, except where the sharded
  // engine gives each domain its own bounded recorder and merges only what
  // they kept. Such a workload replays its cells here on the classic
  // single-domain engine, where one recorder sees every record, and
  // returns true.
  virtual bool ReplayOnClassicEngine(SpanLog* /*spans*/, const AfterCell& /*after_cell*/) {
    return false;
  }
};

// Workers for the sharded engine: min(4, CPUs this process may use).
int FleetWorkers();

// Null for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
