// Buffer-sizing study: {BDP, BDP/sqrt(n), BDP/4} x {Reno, CUBIC, DCTCP} x
// n flows, on a dumbbell trunk, an incast star, and a 2:1-oversubscribed
// leaf-spine core (DESIGN.md §13, §17; EXPERIMENTS.md). Reproduces the
// qualitative result of Spang et al.,
// "Updating the Theory of Buffer Sizing": drop-tail Reno needs a BDP of
// buffer to stay at full utilization (and pays the standing-queue delay for
// it), BDP/sqrt(n) suffices as n grows, and DCTCP with a shallow ECN
// threshold sustains throughput at a fraction of the p99 queueing delay —
// buffer size stops being the knob once the feedback is marks, not drops.
//
// A second phase reruns the estimator fleet (Nagle controller on vs off)
// behind an ECN-marked small buffer, where cwnd — not the batching
// controller — governs small-window behavior: the estimator-interaction
// cell the congestion-control subsystem unlocks.
//
// Usage: buffer_sizing_sweep [--smoke] [--jobs=N] [--shards=N] [--series=out.csv]
//        [out.json]
//   --smoke   small grid + short windows (CI determinism check); also runs
//             the first cell twice and aborts on any divergence.
//   --jobs=N  run independent cells on N workers (0 = all cores). Commits
//             are in cell order, so output is byte-identical to --jobs=1.
//   --series= re-run the first cell with a TimeSeriesSampler attached and
//             write per-port queue/mark gauges there (CSV, or JSON when the
//             path ends in .json). Passive: stdout/JSON are unchanged.
//
// JSON uses fixed-width formatting only: same-seed runs are byte-identical
// (the determinism contract, DESIGN.md §9).

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/testbed/buffer_sizing.h"
#include "src/testbed/fleet.h"
#include "src/testbed/report.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr uint64_t kSeed = 2311;

struct Cell {
  const char* scenario;     // "dumbbell" | "incast" | "leafspine"
  const char* buffer_rule;  // "bdp" | "bdp_sqrt_n" | "bdp_4"
  CcAlgorithm algorithm;
  int flows;
  BufferSizingConfig config;
  BufferSizingResult result;
};

// The estimator-interaction phase: the fleet experiment behind an
// ECN-marked small buffer, Nagle controller pinned on or off.
struct FleetCell {
  CcAlgorithm algorithm;
  bool nagle_on;
  FleetExperimentConfig config;
  FleetExperimentResult result;
};

// The leaf-spine scenario's per-spine trunk rate: the client rack's
// host-facing capacity (`flows` clients at the 100 Gbps edge rate), halved
// for a 2:1-oversubscribed core, split across the spines. Scaling with the
// flow count keeps the oversubscription ratio — the thing the scenario is
// about — constant across grid rows.
double LeafSpineTrunkBps(int flows, int spines) {
  return static_cast<double>(flows) * 100e9 / 2.0 / static_cast<double>(spines);
}

BufferSizingConfig MakeConfig(const char* scenario, CcAlgorithm algorithm, int flows,
                              size_t buffer_bytes, bool smoke, int shards) {
  BufferSizingConfig config;
  config.shards = shards;
  if (std::strcmp(scenario, "dumbbell") == 0) {
    config.shape = FabricShape::kDumbbell;
  } else if (std::strcmp(scenario, "leafspine") == 0) {
    config.shape = FabricShape::kLeafSpine;
    config.bottleneck_bps = LeafSpineTrunkBps(flows, config.num_spines);
    // Datacenter-scale trunks: a ~26 us RTT (vs the dumbbell's stretched
    // ~110 us) keeps the per-port BDP in the dozens-of-segments regime.
    config.trunk_propagation = Duration::Micros(5);
  } else {
    config.shape = FabricShape::kStar;
  }
  config.num_flows = flows;
  config.algorithm = algorithm;
  // DCTCP runs over a shallow marking threshold (RFC 8257's K); the
  // loss-based algorithms see a pure drop-tail buffer.
  config.ecn = algorithm == CcAlgorithm::kDctcp;
  config.buffer_bytes = buffer_bytes;
  config.ecn_threshold_bytes = config.ecn ? buffer_bytes / 4 : 0;
  config.seed = kSeed;
  if (smoke) {
    config.warmup = Duration::Millis(10);
    config.measure = Duration::Millis(40);
  }
  return config;
}

size_t BufferFor(const char* rule, const char* scenario, int flows) {
  BufferSizingConfig probe;
  double rate = 100e9;
  if (std::strcmp(scenario, "dumbbell") == 0) {
    probe.shape = FabricShape::kDumbbell;
    rate = probe.bottleneck_bps;
  } else if (std::strcmp(scenario, "leafspine") == 0) {
    probe.shape = FabricShape::kLeafSpine;
    probe.trunk_propagation = Duration::Micros(5);  // Match MakeConfig.
    rate = LeafSpineTrunkBps(flows, probe.num_spines);  // Per uplink port.
  } else {
    probe.shape = FabricShape::kStar;
  }
  const uint64_t bdp = BdpBytes(rate, BufferSizingBaseRtt(probe));
  if (std::strcmp(rule, "bdp_sqrt_n") == 0) {
    return static_cast<size_t>(static_cast<double>(bdp) / std::sqrt(static_cast<double>(flows)));
  }
  if (std::strcmp(rule, "bdp_4") == 0) {
    return static_cast<size_t>(bdp / 4);
  }
  return static_cast<size_t>(bdp);
}

FleetExperimentConfig MakeFleetConfig(CcAlgorithm algorithm, bool nagle_on, bool smoke,
                                      int shards) {
  FleetExperimentConfig config;
  config.fabric = FleetExperimentConfig::DefaultFleetFabric(8);
  config.fabric.shards = shards;
  config.fabric.server_port.buffer_bytes = 32 * 1024;
  config.fabric.server_port.ecn_threshold_bytes = 8 * 1024;
  config.total_rate_rps = 20000;
  config.batch_mode = nagle_on ? BatchMode::kStaticOn : BatchMode::kStaticOff;
  config.client_cc = {algorithm};
  config.server_cc = algorithm;
  config.ecn = algorithm == CcAlgorithm::kDctcp;
  config.seed = kSeed;
  if (smoke) {
    config.warmup = Duration::Millis(50);
    config.measure = Duration::Millis(150);
  }
  return config;
}

bool SameBufferSizingRun(const BufferSizingResult& a, const BufferSizingResult& b) {
  return a.aggregate_goodput_bps == b.aggregate_goodput_bps &&
         a.mean_queue_bytes == b.mean_queue_bytes && a.p99_queue_bytes == b.p99_queue_bytes &&
         a.drops == b.drops && a.ecn_marked == b.ecn_marked && a.retransmits == b.retransmits &&
         a.ece_received == b.ece_received && a.cwr_sent == b.cwr_sent &&
         a.cc_decreases == b.cc_decreases && a.mean_cwnd_bytes == b.mean_cwnd_bytes;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv, kSweepSmoke | kSweepJobs | kSweepShards | kSweepSeries,
                      &args) ||
      !ProbeJsonOutput(args.json_path)) {
    return 1;
  }
  const bool smoke = args.smoke;
  const int shards = args.shards;

  PrintBanner("Buffer sizing: rule x congestion control x flows (cc subsystem)");

  const std::vector<const char*> scenarios = {"dumbbell", "incast", "leafspine"};
  const std::vector<const char*> rules =
      smoke ? std::vector<const char*>{"bdp", "bdp_sqrt_n"}
            : std::vector<const char*>{"bdp", "bdp_sqrt_n", "bdp_4"};
  const std::vector<CcAlgorithm> algorithms = {CcAlgorithm::kReno, CcAlgorithm::kCubic,
                                               CcAlgorithm::kDctcp};
  const std::vector<int> flow_counts = smoke ? std::vector<int>{4} : std::vector<int>{4, 16};

  std::vector<Cell> cells;
  for (const char* scenario : scenarios) {
    for (const char* rule : rules) {
      for (int flows : flow_counts) {
        for (CcAlgorithm algorithm : algorithms) {
          Cell cell;
          cell.scenario = scenario;
          cell.buffer_rule = rule;
          cell.algorithm = algorithm;
          cell.flows = flows;
          cell.config = MakeConfig(scenario, algorithm, flows,
                                   BufferFor(rule, scenario, flows), smoke, shards);
          cells.push_back(cell);
        }
      }
    }
  }

  if (smoke) {
    CheckSameSeed(cells.front().config, RunBufferSizing, SameBufferSizingRun,
                  "buffer-sizing runs");
  }

  Table table({"scenario", "rule", "cc", "n", "buf_KB", "thru_Gbps", "util%", "qmean_KB",
               "qp99_us", "drops", "marks", "rtx", "cwr", "fair"});
  SweepExecutor executor(args.jobs);
  executor.Run(
      cells.size(), [&](size_t i) { cells[i].result = RunBufferSizing(cells[i].config); },
      [&](size_t i) {
        const Cell& cell = cells[i];
        const BufferSizingResult& r = cell.result;
        table.Row()
            .Cell(cell.scenario)
            .Cell(cell.buffer_rule)
            .Cell(CcAlgorithmName(cell.algorithm))
            .Int(cell.flows)
            .Num(cell.config.buffer_bytes / 1024.0, 1)
            .Num(r.aggregate_goodput_bps / 1e9, 2)
            .Num(r.bottleneck_utilization * 100.0, 1)
            .Num(r.mean_queue_bytes / 1024.0, 1)
            .Num(r.p99_queue_delay_us, 1)
            .Int(static_cast<int64_t>(r.drops))
            .Int(static_cast<int64_t>(r.ecn_marked))
            .Int(static_cast<int64_t>(r.retransmits))
            .Int(static_cast<int64_t>(r.cwr_sent))
            .Num(r.jain_fairness, 3);
      });
  table.Print();
  std::printf(
      "\nDrop-tail Reno/CUBIC hold utilization by filling whatever buffer is\n"
      "there (p99 queue delay ~ buffer drain time); at BDP/sqrt(n) the loss\n"
      "synchronization shows up as drops + retransmits. DCTCP's marks keep\n"
      "the queue pinned near the threshold: comparable throughput at a small\n"
      "fraction of the queueing delay, in every buffer rule.\n\n");

  // ---- Estimator interaction: Nagle controller under congestion ----
  std::vector<FleetCell> fleet_cells;
  const std::vector<CcAlgorithm> fleet_algorithms =
      smoke ? std::vector<CcAlgorithm>{CcAlgorithm::kDctcp}
            : std::vector<CcAlgorithm>{CcAlgorithm::kReno, CcAlgorithm::kDctcp};
  for (CcAlgorithm algorithm : fleet_algorithms) {
    for (bool nagle_on : {false, true}) {
      FleetCell cell;
      cell.algorithm = algorithm;
      cell.nagle_on = nagle_on;
      cell.config = MakeFleetConfig(algorithm, nagle_on, smoke, shards);
      fleet_cells.push_back(cell);
    }
  }
  PrintBanner("Estimator fleet behind an ECN-marked 32K buffer (Nagle on/off)");
  Table fleet_table({"cc", "nagle", "kRPS", "meas_us", "p99_us", "est_err%", "drops", "marks",
                     "rtx"});
  executor.Run(
      fleet_cells.size(),
      [&](size_t i) { fleet_cells[i].result = RunFleetExperiment(fleet_cells[i].config); },
      [&](size_t i) {
        const FleetCell& cell = fleet_cells[i];
        const FleetExperimentResult& r = cell.result;
        fleet_table.Row()
            .Cell(CcAlgorithmName(cell.algorithm))
            .Cell(cell.nagle_on ? "on" : "off")
            .Num(r.achieved_krps, 1)
            .Num(r.measured_mean_us, 1)
            .Num(r.measured_p99_us, 1)
            .Num(r.FleetEstimateErrorPct().value_or(0), 1)
            .Int(static_cast<int64_t>(r.switch_tail_drops))
            .Int(static_cast<int64_t>(r.switch_ecn_marked))
            .Int(static_cast<int64_t>(r.retransmits));
      });
  fleet_table.Print();
  std::printf(
      "\nWith the batching controller pinned on, held small segments ride out\n"
      "the marked queue; the end-to-end estimate keeps tracking because cwnd\n"
      "backpressure shows up in the unacked queue the estimator already\n"
      "samples.\n\n");

  if (args.series_path != nullptr) {
    // A same-seed re-run of the first cell with per-port queue gauges
    // sampled, so the sampler's ticks never reach the sweep's own numbers.
    BufferSizingConfig config = cells.front().config;
    config.series_interval = config.sample_interval;
    if (!WriteSeriesFile(RunBufferSizing(config).series, args.series_path)) {
      return 1;
    }
  }

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("buffer_sizing_sweep"));
  json.KV("seed", kSeed);
  json.KV("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
  json.Key("cells").BeginArray();
  for (const Cell& cell : cells) {
    const BufferSizingResult& r = cell.result;
    json.BeginObject();
    json.KV("scenario", std::string(cell.scenario));
    json.KV("buffer_rule", std::string(cell.buffer_rule));
    json.KV("cc", std::string(CcAlgorithmName(cell.algorithm)));
    json.KV("ecn", static_cast<uint64_t>(cell.config.ecn ? 1 : 0));
    json.KV("flows", static_cast<int64_t>(cell.flows));
    json.KV("buffer_bytes", static_cast<uint64_t>(cell.config.buffer_bytes));
    json.KV("ecn_threshold_bytes", static_cast<uint64_t>(cell.config.ecn_threshold_bytes));
    json.KV("goodput_gbps", r.aggregate_goodput_bps / 1e9, 3);
    json.KV("cross_rack_goodput_gbps", r.cross_rack_goodput_bps / 1e9, 3);
    json.KV("utilization", r.bottleneck_utilization, 4);
    json.KV("mean_queue_bytes", r.mean_queue_bytes, 1);
    json.KV("p99_queue_bytes", r.p99_queue_bytes, 1);
    json.KV("max_queue_bytes", r.max_queue_bytes, 1);
    json.KV("mean_queue_delay_us", r.mean_queue_delay_us, 2);
    json.KV("p99_queue_delay_us", r.p99_queue_delay_us, 2);
    json.KV("drops", r.drops);
    json.KV("ecn_marked", r.ecn_marked);
    json.KV("retransmits", r.retransmits);
    json.KV("ce_received", r.ce_received);
    json.KV("ece_received", r.ece_received);
    json.KV("cwr_sent", r.cwr_sent);
    json.KV("cc_decreases", r.cc_decreases);
    json.KV("mean_cwnd_bytes", r.mean_cwnd_bytes, 1);
    json.KV("jain_fairness", r.jain_fairness, 4);
    json.Key("flow_goodput_gbps").BeginArray();
    for (double bps : r.flow_goodput_bps) {
      json.Double(bps / 1e9, 3);
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.Key("fleet_cells").BeginArray();
  for (const FleetCell& cell : fleet_cells) {
    const FleetExperimentResult& r = cell.result;
    json.BeginObject();
    json.KV("cc", std::string(CcAlgorithmName(cell.algorithm)));
    json.KV("nagle", static_cast<uint64_t>(cell.nagle_on ? 1 : 0));
    json.KV("achieved_krps", r.achieved_krps, 2);
    json.KV("measured_mean_us", r.measured_mean_us, 2);
    json.KV("measured_p99_us", r.measured_p99_us, 2);
    json.KV("fleet_est_bytes_us", r.fleet_est_bytes_us, 2);
    json.KV("switch_tail_drops", r.switch_tail_drops);
    json.KV("switch_ecn_marked", r.switch_ecn_marked);
    json.KV("retransmits", r.retransmits);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  json.Finish();
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
