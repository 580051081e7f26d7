// Fleet-scale estimator validation (fabric extension bench).
//
// The paper validates end-to-end estimation on one client/server pair; this
// sweep scales the client side out to a fleet: N Lancet clients (cycling
// bare-metal and VM cost profiles), each on its own host behind a switched
// star fabric, all driving one Redis-like server. The aggregate offered
// load is held constant while the sweep varies fleet size x the server
// downlink port's buffer, so the shared bottleneck queue in front of the
// server — absent from the two-host setup — moves from invisible to
// overflowing. Per cell we report per-connection and fleet-aggregate
// estimated vs measured latency, the server port's occupancy high-water
// mark, tail drops, ECN marks, and retransmits.
//
// Usage: fleet_sweep [--smoke] [--jobs=N] [--shards=N] [--leafspine]
//                    [--trace=trace.json] [--series=out.csv] [out.json]
//   --trace= record the first cell with the sim-time tracer and write
//            Chrome trace-event JSON there (DESIGN.md §11). Passive: stdout
//            and out.json are unchanged by tracing.
//   --series= sample the first cell's fleet gauges every 1 ms and write the
//            aligned series there (CSV, or JSON with a .json suffix).
//            Passive like --trace: sampling is read-only, so the main
//            outputs stay byte-identical.
//   --smoke  small grid + short windows (CI determinism check); also runs
//            the first cell twice and aborts on any divergence.
//   --jobs=N run the independent cells on N worker threads (0 = all cores).
//            Results commit in cell order, so stdout and out.json are
//            byte-identical to --jobs=1 (DESIGN.md §12; CI compares them).
//   --shards=N partition each cell's simulation into per-host/per-switch
//            domains run by N workers (DESIGN.md §16). 0 (default) keeps
//            the classic engine; output is byte-identical for every N >= 1
//            (ctest label `shard` compares --shards=1 vs --shards=4).
//   --leafspine run every cell on a 2-leaf x 2-spine Clos fabric
//            (DESIGN.md §17) with two servers instead of the single-switch
//            star: half the connections cross racks and ECMP-hash over the
//            spines, and sharded runs get a domain per switch.
//
// JSON is rendered with fixed-width formatting only: two runs with the same
// seed are byte-identical (the determinism contract; see DESIGN.md §9).

#include <cstdio>
#include <string>
#include <vector>

#include "src/testbed/fleet.h"
#include "src/testbed/report.h"
#include "src/testbed/sweep/executor.h"
#include "src/testbed/sweep/harness.h"

namespace e2e {
namespace {

constexpr uint64_t kSeed = 1303;

struct Cell {
  int num_clients;
  size_t buffer_bytes;  // Server downlink port buffer (0 = unlimited).
  FleetExperimentResult result;
};

FleetExperimentConfig MakeConfig(int num_clients, size_t buffer_bytes, const SweepArgs& args) {
  FleetExperimentConfig config;
  config.fabric = FleetExperimentConfig::DefaultFleetFabric(num_clients);
  if (args.leafspine) {
    // Same edge calibration, Clos core: hosts round-robin over two racks,
    // so with two servers half the connections stay rack-local and half
    // cross a spine. The server-port buffer under sweep still applies to
    // the hosts' leaf downlinks.
    config.fabric.shape = FabricShape::kLeafSpine;
    config.fabric.num_leaves = 2;
    config.fabric.num_spines = 2;
    config.fabric.num_servers = 2;
    config.fabric.trunk_link.bandwidth_bps = 100e9;
  }
  config.fabric.shards = args.shards;
  config.fabric.server_port.buffer_bytes = buffer_bytes;
  // Mark early so the ECN counters show where marking would act.
  config.fabric.server_port.ecn_threshold_bytes = buffer_bytes / 4;
  config.total_rate_rps = 20000;  // Constant aggregate across fleet sizes.
  config.batch_mode = BatchMode::kStaticOff;
  config.seed = kSeed;
  if (args.smoke) {
    config.warmup = Duration::Millis(50);
    config.measure = Duration::Millis(150);
  }
  return config;
}

bool SameFleetRun(const FleetExperimentResult& a, const FleetExperimentResult& b) {
  return a.measured_mean_us == b.measured_mean_us && a.measured_p99_us == b.measured_p99_us &&
         a.fleet_est_bytes_us == b.fleet_est_bytes_us &&
         a.requests_completed == b.requests_completed && a.retransmits == b.retransmits &&
         a.switch_tail_drops == b.switch_tail_drops &&
         a.switch_ecn_marked == b.switch_ecn_marked &&
         a.server_port_max_queue_bytes == b.server_port_max_queue_bytes;
}

int Main(int argc, char** argv) {
  SweepArgs args;
  if (!ParseSweepArgs(argc, argv,
                      kSweepSmoke | kSweepJobs | kSweepShards | kSweepTrace | kSweepSeries |
                          kSweepLeafSpine,
                      &args)) {
    return 1;
  }
  PrintBanner(args.leafspine ? "Fleet sweep: clients x server-port buffer (leaf-spine fabric)"
                        : "Fleet sweep: clients x server-port buffer (star fabric)");

  const std::vector<int> fleet_sizes =
      args.smoke ? std::vector<int>{1, 4, 8} : std::vector<int>{1, 4, 16, 64, 256};
  const std::vector<size_t> buffers = args.smoke
                                          ? std::vector<size_t>{32 * 1024, 0}
                                          : std::vector<size_t>{64 * 1024, 512 * 1024, 0};

  if (args.smoke) {
    CheckSameSeed(MakeConfig(fleet_sizes.front(), buffers.front(), args), RunFleetExperiment,
                  SameFleetRun, "fleet runs");
  }

  // --trace captures the first (smallest) cell: one client keeps the packet
  // and queue tracks readable in the viewer.
  SweepTrace trace(args.trace_path);

  // Cells are independent deterministic simulations; bodies fill their own
  // slot on the worker pool and every output byte is produced by the
  // in-order commits, so --jobs=N matches --jobs=1 byte-for-byte.
  std::vector<Cell> cells;
  for (size_t buffer : buffers) {
    for (int n : fleet_sizes) {
      Cell cell;
      cell.num_clients = n;
      cell.buffer_bytes = buffer;
      cells.push_back(std::move(cell));
    }
  }

  Table table({"clients", "buf_KB", "kRPS", "meas_us", "p99_us", "fleet_est_us", "err%",
               "online_us", "drops", "ecn", "maxq_KB", "rtx"});
  SweepExecutor executor(args.jobs);
  executor.Run(
      cells.size(),
      [&](size_t i) {
        Cell& cell = cells[i];
        // Thread-local binding: only cell 0 records, whatever thread runs it.
        ScopedTrace bind(trace.For(i == 0));
        cell.result = RunFleetExperiment(MakeConfig(cell.num_clients, cell.buffer_bytes, args));
      },
      [&](size_t i) {
        const Cell& cell = cells[i];
        const FleetExperimentResult& r = cell.result;
        table.Row()
            .Int(cell.num_clients)
            .Num(cell.buffer_bytes / 1024.0, 0)
            .Num(r.achieved_krps, 1)
            .Num(r.measured_mean_us, 1)
            .Num(r.measured_p99_us, 1)
            .Num(r.fleet_est_bytes_us.value_or(0), 1)
            .Num(r.FleetEstimateErrorPct().value_or(0), 1)
            .Num(r.online_est_us.value_or(0), 1)
            .Int(static_cast<int64_t>(r.switch_tail_drops))
            .Int(static_cast<int64_t>(r.switch_ecn_marked))
            .Num(r.server_port_max_queue_bytes / 1024.0, 1)
            .Int(static_cast<int64_t>(r.retransmits));
      });
  table.Print();

  // Per-port switch counters for the last cell (the biggest fleet).
  const Cell& last = cells.back();
  if (!last.result.port_stats.empty()) {
    std::printf("\nSwitch ports (%d clients, buf=%zu):\n", last.num_clients, last.buffer_bytes);
    // The full port list is one row per host; show the server + first ports.
    std::vector<std::pair<std::string, SwitchPort::Counters>> rows;
    const auto& ports = last.result.port_stats;
    for (size_t i = 0; i < ports.size(); ++i) {
      if (i < 4 || i + 1 == ports.size()) {
        rows.push_back(ports[i]);
      }
    }
    SwitchPortsTable(rows).Print();
  }
  std::printf(
      "\nAt constant aggregate load the estimate stays inside the two-host error\n"
      "band while the server port absorbs the incast; once the buffer clips\n"
      "(drops > 0) retransmission delay moves ground truth before the counters.\n\n");

  if (!trace.Write()) {
    return 1;
  }

  if (args.series_path != nullptr) {
    // Sampling is read-only, but the sampler's own ticks count as engine
    // events and nudge the queue-occupancy stats the JSON reports — so the
    // series comes from a dedicated same-seed re-run of the first cell and
    // the main outputs stay byte-identical with and without --series.
    FleetExperimentConfig config =
        MakeConfig(cells.front().num_clients, cells.front().buffer_bytes, args);
    config.series_interval = Duration::Millis(1);
    if (!WriteSeriesFile(RunFleetExperiment(config).series, args.series_path)) {
      return 1;
    }
  }

  const JsonOutputFile json_out(args.json_path);
  if (json_out.get() == nullptr) {
    return 1;
  }
  JsonWriter json(json_out.get());
  json.BeginObject();
  json.KV("bench", std::string("fleet_sweep"));
  json.KV("seed", kSeed);
  json.KV("smoke", static_cast<uint64_t>(args.smoke ? 1 : 0));
  json.KV("fabric", std::string(args.leafspine ? "leafspine" : "star"));
  json.KV("unit_mode", std::string("bytes"));
  json.Key("cells").BeginArray();
  for (const Cell& cell : cells) {
    const FleetExperimentResult& r = cell.result;
    json.BeginObject();
    json.KV("num_clients", static_cast<int64_t>(cell.num_clients));
    json.KV("server_buffer_bytes", static_cast<uint64_t>(cell.buffer_bytes));
    json.KV("offered_krps", r.offered_krps, 2);
    json.KV("achieved_krps", r.achieved_krps, 2);
    json.KV("measured_mean_us", r.measured_mean_us, 2);
    json.KV("measured_p50_us", r.measured_p50_us, 2);
    json.KV("measured_p99_us", r.measured_p99_us, 2);
    json.KV("fleet_est_bytes_us", r.fleet_est_bytes_us, 2);
    json.KV("fleet_est_err_pct", r.FleetEstimateErrorPct(), 2);
    json.KV("online_est_us", r.online_est_us, 2);
    json.KV("requests_completed", r.requests_completed);
    json.KV("retransmits", r.retransmits);
    json.KV("switch_tail_drops", r.switch_tail_drops);
    json.KV("switch_ecn_marked", r.switch_ecn_marked);
    json.KV("forwarding_misses", r.forwarding_misses);
    json.KV("server_port_max_queue_bytes", r.server_port_max_queue_bytes);
    json.KV("server_port_max_queue_packets", r.server_port_max_queue_packets);
    json.KV("queue_peak_max", r.queue_peak_max);
    json.KV("queue_peak_mean", r.queue_peak_mean, 1);
    json.KV("queue_domains", r.queue_domains);
    json.KV("server_app_util", r.server_app_util, 4);
    json.KV("server_softirq_util", r.server_softirq_util, 4);
    json.KV("mean_client_app_util", r.mean_client_app_util, 4);
    json.Key("connections").BeginArray();
    for (const FleetConnectionResult& cr : r.connections) {
      json.BeginObject();
      json.KV("client", static_cast<int64_t>(cr.client));
      json.KV("profile", static_cast<int64_t>(cr.profile));
      json.KV("offered_krps", cr.offered_krps, 3);
      json.KV("achieved_krps", cr.achieved_krps, 3);
      json.KV("measured_mean_us", cr.measured_mean_us, 2);
      json.KV("measured_p99_us", cr.measured_p99_us, 2);
      json.KV("est_bytes_us", cr.est_bytes_us, 2);
      json.KV("est_err_pct", cr.EstimateErrorPct(), 2);
      json.KV("requests_completed", cr.requests_completed);
      json.KV("retransmits", cr.retransmits);
      json.EndObject();
    }
    json.EndArray();
    json.Key("ports").BeginArray();
    for (const auto& [name, c] : r.port_stats) {
      json.BeginObject();
      json.KV("port", name);
      json.KV("packets_in", c.packets_in);
      json.KV("packets_out", c.packets_out);
      json.KV("bytes_out", c.bytes_out);
      json.KV("tail_drops", c.tail_drops);
      json.KV("byte_limit_drops", c.byte_limit_drops);
      json.KV("packet_limit_drops", c.packet_limit_drops);
      json.KV("dropped_bytes", c.dropped_bytes);
      json.KV("ecn_marked", c.ecn_marked);
      json.KV("max_queue_bytes", c.max_queue_bytes);
      json.KV("max_queue_packets", c.max_queue_packets);
      json.EndObject();
    }
    json.EndArray();
    // Measurement-window fabric counter deltas from the registry (every
    // NIC, link, switch port, and switch in the topology).
    json.Key("fabric_window").BeginArray();
    for (const auto& [entity, counters] : r.fabric_window) {
      json.BeginObject();
      json.KV("entity", entity);
      for (const auto& [counter, value] : counters) {
        json.KV(counter, value);
      }
      json.EndObject();
    }
    json.EndArray();
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
