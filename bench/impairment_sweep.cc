// Estimator robustness under network impairment (extension bench).
//
// The paper validates Little's-law end-to-end estimation over a pristine
// 100 Gbps link; this sweep asks how the estimate degrades when the network
// misbehaves. Grid: Gilbert-Elliott burst length x stationary loss rate x
// response-path jitter, applied to BOTH directions of the Redis/Lancet
// testbed. Per cell we report measured ground-truth latency, the byte-mode
// counter estimate, the signed estimator error, achieved throughput, TCP
// retransmit counters, and every impairment stage's counters.
//
// Output: the usual fixed-width table on stdout plus a JSON document (to
// the positional path argument when given, else stdout). The JSON is
// rendered with fixed-width formatting only — two runs with the same seed
// are byte-identical, which is the subsystem's determinism contract (see
// DESIGN.md, "Impairment engine").
//
// Usage: impairment_sweep [--jobs=N] [out.json]
//   --jobs=N run the independent cells on N worker threads (0 = all
//            cores). Results commit in cell order, so stdout and out.json
//            are byte-identical to --jobs=1 (DESIGN.md §12).

#include <cstdio>
#include <string>
#include <vector>

#include "src/testbed/experiment.h"
#include "src/testbed/report.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

struct Cell {
  double burst_pkts = 0;    // Mean Gilbert-Elliott bad-state dwell, in packets (0 = off).
  double loss_rate = 0;     // Stationary loss rate (0 = off).
  double jitter_us = 0;     // Mean response-path jitter (0 = off).
  double config_burst = 0;  // Burst value fed to MakeImpairment (kept even when loss == 0).
  RedisExperimentResult result;
};

ImpairmentConfig MakeImpairment(double burst_pkts, double loss_rate, double jitter_us) {
  ImpairmentConfig impair;
  if (loss_rate > 0) {
    impair.gilbert_elliott = GilbertElliottConfig::FromBurstAndRate(burst_pkts, loss_rate);
  }
  if (jitter_us > 0) {
    JitterConfig jitter;
    jitter.dist = JitterConfig::Dist::kExponential;
    jitter.mean = Duration::MicrosF(jitter_us);
    impair.jitter = jitter;
  }
  return impair;
}

int Main(int argc, char** argv) {
  constexpr uint64_t kSeed = 977;
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv, kSweepJobs, &args)) {
    return 1;
  }

  PrintBanner("Estimator error under Gilbert-Elliott loss x jitter");

  const std::vector<double> burst_lengths = {1.0, 8.0, 32.0};  // 1 = i.i.d.-like.
  const std::vector<double> loss_rates = {0.0, 0.002, 0.01};
  const std::vector<double> jitters_us = {0.0, 25.0};

  // Flatten the grid first; each cell is an independent deterministic
  // simulation the executor can run on a worker pool. All stdout (table
  // rows, the heaviest cell's endpoint-stats table) is produced by the
  // in-order commits, so --jobs=N output matches --jobs=1 byte-for-byte.
  std::vector<Cell> cells;
  for (double jitter_us : jitters_us) {
    for (double loss : loss_rates) {
      for (double burst : burst_lengths) {
        if (loss == 0.0 && burst != burst_lengths.front()) {
          continue;  // Burst length is meaningless without loss; run once.
        }
        Cell cell;
        cell.burst_pkts = loss > 0 ? burst : 0.0;
        cell.loss_rate = loss;
        cell.jitter_us = jitter_us;
        cell.config_burst = burst;
        cells.push_back(cell);
      }
    }
  }

  Table table({"burst", "loss", "jit_us", "kRPS", "meas_us", "est_us", "err%", "rtx", "dropped",
               "reordered"});
  SweepExecutor executor(args.jobs);
  executor.Run(
      cells.size(),
      [&](size_t i) {
        Cell& cell = cells[i];
        RedisExperimentConfig config;
        config.rate_rps = 20000;
        config.batch_mode = BatchMode::kStaticOff;
        config.seed = kSeed;
        config.warmup = Duration::Millis(100);
        config.measure = Duration::Millis(400);
        config.topology.c2s_impairment =
            MakeImpairment(cell.config_burst, cell.loss_rate, cell.jitter_us);
        config.topology.s2c_impairment =
            MakeImpairment(cell.config_burst, cell.loss_rate, cell.jitter_us);
        cell.result = RunRedisExperiment(config);
      },
      [&](size_t i) {
        const Cell& cell = cells[i];
        uint64_t dropped = 0;
        uint64_t reordered = 0;
        for (const auto* dir : {&cell.result.impair_c2s, &cell.result.impair_s2c}) {
          for (const auto& [stage, counters] : *dir) {
            dropped += counters.dropped;
            reordered += counters.reordered;
          }
        }
        table.Row()
            .Num(cell.burst_pkts, 0)
            .Num(cell.loss_rate * 100, 2)
            .Num(cell.jitter_us, 0)
            .Num(cell.result.achieved_krps, 1)
            .Num(cell.result.measured_mean_us, 1)
            .Num(cell.result.est_bytes_us.value_or(0), 1)
            .Num(cell.result.EstimateErrorPct(UnitMode::kBytes).value_or(0), 1)
            .Int(static_cast<int64_t>(cell.result.retransmits))
            .Int(static_cast<int64_t>(dropped))
            .Int(static_cast<int64_t>(reordered));
        // Heaviest cell: show the full per-endpoint TCP stats table once,
        // from the stats copied into the result (the endpoints are gone).
        if (i + 1 == cells.size()) {
          std::printf("\nPer-endpoint TCP stats (connection 0):\n");
          TcpEndpointStatsTable({{"client", cell.result.client_endpoint_stats},
                                 {"server", cell.result.server_endpoint_stats}})
              .Print();
        }
      });
  table.Print();
  // Per-stage counters for the heaviest cell, both directions.
  const Cell& worst = cells.back();
  std::printf("\nPer-stage impairment counters (burst=%.0f, loss=%.1f%%, jitter=%.0f us):\n",
              worst.burst_pkts, worst.loss_rate * 100, worst.jitter_us);
  ImpairmentCountersTable({{"c2s", worst.result.impair_c2s}, {"s2c", worst.result.impair_s2c}})
      .Print();
  std::printf(
      "\nThe counter-based estimate tracks the measured mean as long as losses are\n"
      "recovered within the window; deep bursts shift latency into retransmission\n"
      "timeouts that the queue averages see only partially.\n\n");

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("impairment_sweep"));
  json.KV("seed", kSeed);
  json.KV("unit_mode", std::string("bytes"));
  json.Key("cells").BeginArray();
  for (const Cell& cell : cells) {
    const RedisExperimentResult& r = cell.result;
    json.BeginObject();
    json.KV("ge_burst_pkts", cell.burst_pkts, 1);
    json.KV("ge_loss_rate", cell.loss_rate, 4);
    json.KV("jitter_us", cell.jitter_us, 1);
    json.KV("offered_krps", r.offered_krps, 2);
    json.KV("achieved_krps", r.achieved_krps, 2);
    json.KV("measured_mean_us", r.measured_mean_us, 2);
    json.KV("measured_p99_us", r.measured_p99_us, 2);
    json.KV("est_bytes_us", r.est_bytes_us, 2);
    json.KV("est_err_pct", r.EstimateErrorPct(UnitMode::kBytes), 2);
    json.KV("client_retransmits", r.client_retransmits);
    json.KV("server_retransmits", r.server_retransmits);
    json.KV("client_delack_fires", r.client_delack_fires);
    json.KV("server_delack_fires", r.server_delack_fires);
    json.KV("rx_checksum_drops", r.rx_checksum_drops);
    json.Key("impair_c2s").ImpairmentArray(r.impair_c2s);
    json.Key("impair_s2c").ImpairmentArray(r.impair_s2c);
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
