#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

#include "src/apps/lancet.h"
#include "src/apps/redis_server.h"
#include "src/sim/random.h"
#include "src/testbed/collector.h"
#include "src/testbed/experiment.h"
#include "src/testbed/fabric_topology.h"
#include "src/testbed/fleet.h"
#include "src/testbed/recovery.h"
#include "src/testbed/robustness.h"
#include "src/testbed/topology.h"

namespace perfbench {

using e2e::BatchMode;
using e2e::CcAlgorithm;
using e2e::Duration;
using e2e::TimePoint;

namespace {

// DeriveSeed domain for the benchmark's own cells; index = cell number.
constexpr uint64_t kCellSeedDomain = 0xbe;

uint64_t CellSeed(uint64_t run_seed, uint64_t cell) {
  return e2e::DeriveSeed(run_seed, kCellSeedDomain, cell);
}

// Appends "what" to the cell's failure text when `ok` is false.
void Expect(bool ok, const char* what, CellOutcome* cell) {
  if (!ok) {
    cell->failure += cell->failure.empty() ? what : std::string("; ") + what;
  }
}

bool Near(double achieved, double offered, double tolerance) {
  return std::isfinite(achieved) && offered > 0 &&
         std::fabs(achieved - offered) <= tolerance * offered;
}

bool FinitePositive(double v) { return std::isfinite(v) && v > 0; }

// Census of one set-up: `topologies` fabrics of `hosts` hosts, each with
// `connections` connections (two endpoints apiece).
Census CensusOf(double topologies, double hosts, double connections) {
  Census c;
  c.connections = topologies * connections;
  c.endpoint_bytes = 2 * c.connections * sizeof(e2e::TcpEndpoint);
  c.estimator_bytes = 2 * c.connections * sizeof(e2e::ConnectionEstimator);
  c.queues_bytes = 2 * c.connections * sizeof(e2e::EndpointQueues);
  c.host_bytes = topologies * hosts * sizeof(e2e::Host);
  return c;
}

// Builds `copies` two-host topologies and connects each once, all held at
// the same time, timing and RSS-staging construction, Connect and teardown.
// One two-host topology is too small for an RSS delta to resolve, so the
// census spreads over many.
SetupOutcome TwoHostCensus(const e2e::TopologyConfig& topology, const e2e::TcpConfig& client,
                           const e2e::TcpConfig& server, int copies, SpanLog* spans) {
  SetupOutcome out;
  std::vector<std::unique_ptr<e2e::TwoHostTopology>> topos;
  topos.reserve(static_cast<size_t>(copies));
  ReleaseFreeMemory();
  const double rss0 = static_cast<double>(RssBytes());
  {
    ScopedSpan span(spans, "testbed.build");
    for (int i = 0; i < copies; ++i) {
      topos.push_back(std::make_unique<e2e::TwoHostTopology>(topology));
    }
    out.build_s = span.Stop();
  }
  const double rss1 = static_cast<double>(RssBytes());
  {
    ScopedSpan span(spans, "tcp.connect");
    for (auto& topo : topos) {
      topo->Connect(1, client, server);
    }
    out.connect_s = span.Stop();
  }
  const double rss2 = static_cast<double>(RssBytes());
  {
    ScopedSpan span(spans, "testbed.teardown");
    topos.clear();
    out.teardown_s = span.Stop();
  }
  // Per topology, the unit a two-host cell sets up.
  out.rss_build_bytes = (rss1 - rss0) / copies;
  out.rss_connect_bytes = (rss2 - rss1) / copies;
  out.census = CensusOf(1, 2, 1);
  out.build_s /= copies;
  out.connect_s /= copies;
  out.teardown_s /= copies;
  return out;
}

constexpr int kTwoHostCensusCopies = 64;

// A two-host set-up takes well under a millisecond, so one setup_s sample
// is the median of this many zero-length passes.
constexpr int kZeroLengthRepeats = 15;

double MedianWall(SpanLog* spans, const std::function<void()>& zero_length_pass) {
  std::vector<double> walls;
  for (int i = 0; i < kZeroLengthRepeats; ++i) {
    ScopedSpan span(spans, "setup_pass");
    zero_length_pass();
    walls.push_back(span.Stop());
  }
  return Median(walls);
}

// ---------------------------------------------------------------------------
// paper_pair

struct RedisCell {
  const char* name;
  BatchMode mode;
  double rate_rps;
};
constexpr RedisCell kRedisCells[] = {
    {"nodelay_37.5k", BatchMode::kStaticOff, 37500},
    {"nagle_72.5k", BatchMode::kStaticOn, 72500},
    {"dynamic_50k", BatchMode::kDynamic, 50000},
};
constexpr double kRobustRate = 20000;

class PaperPair : public Workload {
 public:
  explicit PaperPair(uint64_t seed) : seed_(seed) {}

  SetupOutcome Setup(SpanLog* spans) override {
    // setup_s: every cell with a zero-length simulation, so the pass pays
    // only topology build, connect, app and collector set-up, and teardown.
    const double setup_s = MedianWall(spans, [this] {
      for (size_t i = 0; i < std::size(kRedisCells); ++i) {
        e2e::RedisExperimentConfig config = RedisConfig(i);
        ZeroLength(&config.warmup, &config.measure, &config.drain);
        e2e::RunRedisExperiment(config);
      }
      e2e::RobustnessConfig robust = RobustConfig();
      ZeroLength(&robust.warmup, &robust.measure, &robust.drain);
      e2e::RunRobustnessExperiment(robust);
    });
    e2e::TcpConfig client = e2e::RedisExperimentConfig::DefaultClientTcp();
    e2e::TcpConfig server = e2e::RedisExperimentConfig::DefaultServerTcp();
    SetupOutcome out = TwoHostCensus(RedisConfig(0).topology, client, server,
                                     kTwoHostCensusCopies, spans);
    out.setup_s = setup_s;
    return out;
  }

  PassOutcome Pass(SpanLog* spans, const AfterCell& after_cell) override {
    PassOutcome pass;
    const double start = NowSeconds();
    double err_sum = 0;
    double resp_per_packet_sum = 0;
    double packets = 0;
    double sends = 0;
    for (size_t i = 0; i < std::size(kRedisCells); ++i) {
      const e2e::RedisExperimentConfig config = RedisConfig(i);
      e2e::RedisExperimentResult r;
      {
        ScopedSpan span(spans, std::string("cell.") + kRedisCells[i].name);
        r = e2e::RunRedisExperiment(config);
      }
      if (after_cell) {
        after_cell();
      }
      pass.sim_s += (config.warmup + config.measure + config.drain).ToSeconds();
      CellOutcome cell;
      cell.name = kRedisCells[i].name;
      cell.fingerprint = Fingerprint()
                             .Add(r.requests_completed)
                             .Add(r.measured_mean_us)
                             .Add(r.measured_p99_us)
                             .Add(r.est_bytes_us.value_or(-1))
                             .Add(r.online_est_us.value_or(-1))
                             .Add(r.server_wire_packets)
                             .Add(r.controller_switches)
                             .Add(r.exchanges)
                             .value();
      Expect(Near(r.achieved_krps, r.offered_krps, 0.05), "achieved load off offered", &cell);
      Expect(FinitePositive(r.measured_mean_us), "no measured latency", &cell);
      Expect(r.est_bytes_us.has_value() && FinitePositive(*r.est_bytes_us),
             "no finite byte-mode estimate", &cell);
      Expect(r.online_est_us.has_value() && FinitePositive(*r.online_est_us),
             "no finite online estimate", &cell);
      Expect(r.exchanges > 0, "no metadata exchanges", &cell);
      const double err = r.est_bytes_us.has_value()
                             ? std::fabs(*r.est_bytes_us - r.measured_mean_us) /
                                   r.measured_mean_us * 100.0
                             : 0;
      Expect(std::isfinite(err) && err < 50.0, "byte-mode estimate off by >= 50%", &cell);
      pass.cells.push_back(cell);

      err_sum += err;
      resp_per_packet_sum += r.responses_per_packet;
      const e2e::TcpEndpoint::Stats& cs = r.client_endpoint_stats;
      const e2e::TcpEndpoint::Stats& ss = r.server_endpoint_stats;
      packets += static_cast<double>(cs.wire_packets_sent + ss.wire_packets_sent);
      sends += static_cast<double>(cs.sends);
      pass.layers["apps.requests"] += static_cast<double>(r.requests_completed);
      pass.layers["apps.achieved_krps"] += r.achieved_krps;
      pass.layers["tcp.retransmits"] += static_cast<double>(r.retransmits);
      pass.layers["tcp.nagle_holds"] += static_cast<double>(r.server_nagle_holds);
      pass.layers["tcp.delack_fires"] +=
          static_cast<double>(r.client_delack_fires + r.server_delack_fires);
      pass.layers["core.exchanges"] += static_cast<double>(r.exchanges);
    }
    pass.layers["core.est_err_pct"] = err_sum / std::size(kRedisCells);
    pass.layers["tcp.resp_per_packet"] = resp_per_packet_sum / std::size(kRedisCells);
    pass.layers["net.packets_per_req"] = packets / sends;

    const e2e::RobustnessConfig config = RobustConfig();
    e2e::RobustnessResult r;
    {
      ScopedSpan span(spans, "cell.withhold_crash");
      r = e2e::RunRobustnessExperiment(config);
    }
    if (after_cell) {
      after_cell();
    }
    pass.sim_s += (config.warmup + config.measure + config.drain).ToSeconds();
    CellOutcome cell;
    cell.name = "withhold_crash";
    cell.fingerprint = Fingerprint()
                           .Add(r.requests_completed)
                           .Add(r.measured_mean_us)
                           .Add(r.measured_p99_us)
                           .Add(r.controller_switches)
                           .Add(r.frozen_ticks)
                           .Add(r.health.demotions)
                           .Add(r.faults.payloads_withheld)
                           .Add(r.reconnect_attempts)
                           .value();
    Expect(Near(r.achieved_krps, r.offered_krps, 0.10), "achieved load off offered", &cell);
    Expect(r.non_finite_samples == 0, "non-finite controller samples", &cell);
    Expect(r.faults.crashes == 1 && r.faults.restarts == 1, "crash not injected once", &cell);
    Expect(r.faults.meta_windows == 1 && r.faults.payloads_withheld > 0,
           "metadata not withheld", &cell);
    Expect(r.reconnects == 1 && r.endpoints_closed == 1, "client did not reconnect once", &cell);
    Expect(r.online_est_us.has_value() && FinitePositive(*r.online_est_us),
           "no finite online estimate", &cell);
    pass.cells.push_back(cell);
    pass.layers["apps.requests"] += static_cast<double>(r.requests_completed);
    pass.layers["apps.achieved_krps"] += r.achieved_krps;
    pass.layers["apps.reconnects"] += static_cast<double>(r.reconnects);
    pass.layers["core.health_demotions"] += static_cast<double>(r.health.demotions);
    pass.layers["core.time_to_recover_ms"] = r.time_to_recover_ms.value_or(0);
    pass.wall_s = NowSeconds() - start;
    return pass;
  }

  // A replica of the Nagle-off cell built from the same public pieces
  // RunRedisExperiment wires (topology, connect, Redis server, Lancet
  // client, counter collector), so the benchmark can read its Simulator.
  EngineView Engine(SpanLog* spans) override {
    const e2e::RedisExperimentConfig config = RedisConfig(0);
    e2e::TwoHostTopology topo(config.topology);
    e2e::Simulator& sim = topo.sim();
    e2e::TcpConfig client_tcp = e2e::RedisExperimentConfig::DefaultClientTcp();
    e2e::TcpConfig server_tcp = e2e::RedisExperimentConfig::DefaultServerTcp();
    client_tcp.e2e_exchange_interval = config.exchange_interval;
    server_tcp.e2e_exchange_interval = config.exchange_interval;
    const e2e::ConnectedPair conn = topo.Connect(1, client_tcp, server_tcp);
    e2e::RedisServerApp::Config server_config;
    server_config.costs = config.server_costs;
    e2e::RedisServerApp server(&sim, conn.b, server_config);
    for (uint64_t key = 0; key < config.mix.key_space; ++key) {
      server.mutable_store().Set(key, config.mix.get_value_len);
    }
    e2e::LancetClient::Config client_config;
    client_config.rate_rps = config.rate_rps;
    client_config.mix = config.mix;
    client_config.costs = config.client_costs;
    client_config.warmup = config.warmup;
    client_config.measure = config.measure;
    client_config.seed = config.seed;
    client_config.use_hints = config.client_hints;
    e2e::LancetClient client(&sim, conn.a, client_config);
    e2e::CounterCollector collector(&sim, conn.a, conn.b, &client.hints(),
                                    config.collect_interval);
    const TimePoint run_end = sim.Now() + config.warmup + config.measure + config.drain;
    collector.Start(run_end);
    client.Start();
    EngineView view;
    {
      ScopedSpan span(spans, "sim.run.replica");
      view.events = static_cast<double>(sim.RunUntil(run_end));
      view.run_s = span.Stop();
    }
    const e2e::Simulator::QueueOccupancy occupancy = sim.queue_occupancy();
    view.queue_peak_max = static_cast<double>(occupancy.peak_max);
    view.queue_peak_mean = occupancy.peak_mean;
    view.domains = static_cast<double>(occupancy.domains);
    return view;
  }

 private:
  static void ZeroLength(Duration* warmup, Duration* measure, Duration* drain) {
    *warmup = Duration::Zero();
    *measure = Duration::Zero();
    *drain = Duration::Zero();
  }

  e2e::RedisExperimentConfig RedisConfig(size_t i) const {
    e2e::RedisExperimentConfig config;
    config.batch_mode = kRedisCells[i].mode;
    config.rate_rps = kRedisCells[i].rate_rps;
    config.seed = CellSeed(seed_, i);
    config.topology.seed = CellSeed(seed_, i + 100);
    return config;
  }

  // A metadata-withhold window and a server crash/reconnect, with the
  // fault-sweep controller tuning (short veto memory, eager re-exploration).
  e2e::RobustnessConfig RobustConfig() const {
    e2e::RobustnessConfig config;
    config.rate_rps = kRobustRate;
    config.seed = CellSeed(seed_, std::size(kRedisCells));
    config.topology.seed = CellSeed(seed_, std::size(kRedisCells) + 100);
    config.controller.veto_memory = Duration::Millis(25);
    config.controller.stale_after = Duration::Millis(30);
    const TimePoint ms = TimePoint::Zero() + config.warmup;
    const double measure_us = config.measure.ToMicros();
    config.faults.Add(e2e::FaultKind::kServerCrash, ms + Duration::MicrosF(measure_us * 0.20),
                      Duration::Millis(20));
    config.faults.Add(e2e::FaultKind::kMetaWithhold, ms + Duration::MicrosF(measure_us * 0.55),
                      Duration::MicrosF(measure_us * 0.20));
    return config;
  }

  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// lossy_bulk

struct BulkCell {
  const char* name;
  bool sack_rack;  // SACK + RACK-TLP + timestamps, CUBIC; else cumack, Reno.
  bool ack_loss;   // i.i.d. loss on the ack path too.
};
constexpr BulkCell kBulkCells[] = {
    {"cumack_reno_data", false, false},
    {"cumack_reno_both", false, true},
    {"sackrack_cubic_data", true, false},
    {"sackrack_cubic_both", true, true},
};
// Long enough that the seed-drawn loss episodes (and the RTOs some of them
// cause) average out: the work a pass does barely depends on the seed.
constexpr Duration kBulkRun = Duration::Millis(4000);

class LossyBulk : public Workload {
 public:
  explicit LossyBulk(uint64_t seed) : seed_(seed) {}

  SetupOutcome Setup(SpanLog* spans) override {
    const double setup_s = MedianWall(spans, [this] {
      for (size_t i = 0; i < std::size(kBulkCells); ++i) {
        e2e::RecoveryConfig config = Config(i);
        config.run = Duration::Zero();
        e2e::RunRecoveryExperiment(config);
      }
    });
    const e2e::RecoveryConfig config = Config(std::size(kBulkCells) - 1);
    SetupOutcome out = TwoHostCensus(Topology(config), Tcp(config), Tcp(config),
                                     kTwoHostCensusCopies, spans);
    out.setup_s = setup_s;
    return out;
  }

  PassOutcome Pass(SpanLog* spans, const AfterCell& after_cell) override {
    PassOutcome pass;
    const double start = NowSeconds();
    double goodput_sum = 0;
    for (size_t i = 0; i < std::size(kBulkCells); ++i) {
      const e2e::RecoveryConfig config = Config(i);
      e2e::RecoveryResult r;
      {
        ScopedSpan span(spans, std::string("cell.") + kBulkCells[i].name);
        r = e2e::RunRecoveryExperiment(config);
      }
      if (after_cell) {
        after_cell();
      }
      pass.sim_s += config.run.ToSeconds();
      CellOutcome cell;
      cell.name = kBulkCells[i].name;
      cell.fingerprint = Fingerprint()
                             .Add(r.bytes_delivered)
                             .Add(r.retransmits)
                             .Add(r.sack_retransmits)
                             .Add(r.rack_marked_lost)
                             .Add(r.tlp_probes)
                             .Add(r.rto_fires)
                             .Add(r.dup_segments_received)
                             .Add(r.srtt_us)
                             .Add(r.exchanges_received)
                             .Add(r.c2s_dropped)
                             .Add(r.s2c_dropped)
                             .value();
      Expect(r.c2s_dropped > 0, "impaired data path dropped nothing", &cell);
      Expect(kBulkCells[i].ack_loss ? r.s2c_dropped > 0 : r.s2c_dropped == 0,
             "ack-path drops do not match its impairment", &cell);
      Expect(r.retransmits > 0, "losses were never retransmitted", &cell);
      Expect(FinitePositive(r.goodput_mbps), "no goodput", &cell);
      Expect(r.exchanges_received > 0, "no metadata exchanges", &cell);
      pass.cells.push_back(cell);

      goodput_sum += r.goodput_mbps;
      pass.layers["tcp.retransmits"] += static_cast<double>(r.retransmits);
      pass.layers["tcp.sack_retransmits"] += static_cast<double>(r.sack_retransmits);
      pass.layers["tcp.rto_fires"] += static_cast<double>(r.rto_fires);
      pass.layers["tcp.tlp_probes"] += static_cast<double>(r.tlp_probes);
      pass.layers["net.impair_drops"] += static_cast<double>(r.c2s_dropped + r.s2c_dropped);
      pass.layers["core.exchanges"] += static_cast<double>(r.exchanges_received);
      pass.layers["core.health_demotions"] += static_cast<double>(r.health_demotions);
    }
    pass.layers["tcp.goodput_mbps"] = goodput_sum / std::size(kBulkCells);
    pass.wall_s = NowSeconds() - start;
    return pass;
  }

  // A replica of the sack_rack/CUBIC both-paths cell (topology, connect,
  // send-buffer pump and prompt reader, as RunRecoveryExperiment wires
  // them, minus the health chain), so the benchmark can read its Simulator.
  EngineView Engine(SpanLog* spans) override {
    const e2e::RecoveryConfig config = Config(std::size(kBulkCells) - 1);
    e2e::TwoHostTopology topo(Topology(config));
    e2e::Simulator& sim = topo.sim();
    const e2e::TcpConfig tcp = Tcp(config);
    const e2e::ConnectedPair conn = topo.Connect(1, tcp, tcp);
    e2e::CpuCore& client_app = topo.client_host().app_core();
    e2e::CpuCore& server_app = topo.server_host().app_core();
    uint64_t next_id = 1;
    std::function<void()> pump = [&] {
      e2e::MessageRecord rec;
      rec.id = next_id;
      while (conn.a->Send(config.bulk_chunk, rec)) {
        rec.id = ++next_id;
      }
    };
    conn.a->SetWritableCallback(
        [&] { client_app.SubmitFixed(Duration::Nanos(100), [&] { pump(); }); });
    client_app.SubmitFixed(Duration::Nanos(100), [&] { pump(); });
    conn.b->SetReadableCallback(
        [&] { server_app.SubmitFixed(Duration::Nanos(200), [&] { conn.b->Recv(); }); });
    EngineView view;
    {
      ScopedSpan span(spans, "sim.run.replica");
      view.events = static_cast<double>(sim.RunFor(config.run));
      view.run_s = span.Stop();
    }
    const e2e::Simulator::QueueOccupancy occupancy = sim.queue_occupancy();
    view.queue_peak_max = static_cast<double>(occupancy.peak_max);
    view.queue_peak_mean = occupancy.peak_mean;
    view.domains = static_cast<double>(occupancy.domains);
    return view;
  }

 private:
  e2e::RecoveryConfig Config(size_t i) const {
    e2e::RecoveryConfig config;
    config.seed = CellSeed(seed_, i);
    config.run = kBulkRun;
    if (kBulkCells[i].sack_rack) {
      config.features.sack = true;
      config.features.rack = true;
      config.features.timestamps = true;
      config.cc = CcAlgorithm::kCubic;
    }
    // Data path: ~1.5% loss in bursts of ~3 packets (Gilbert-Elliott).
    e2e::GilbertElliottConfig ge;
    ge.p_good_to_bad = 0.005;
    ge.p_bad_to_good = 0.33;
    ge.loss_bad = 1.0;
    config.c2s_impairment.gilbert_elliott = ge;
    if (kBulkCells[i].ack_loss) {
      config.s2c_impairment.iid_loss = 0.05;
    }
    return config;
  }

  // The topology and TCP configuration RunRecoveryExperiment builds.
  static e2e::TopologyConfig Topology(const e2e::RecoveryConfig& config) {
    e2e::TopologyConfig topo;
    topo.link.bandwidth_bps = config.link_bps;
    topo.link.propagation = config.propagation;
    topo.c2s_impairment = config.c2s_impairment;
    topo.s2c_impairment = config.s2c_impairment;
    topo.seed = config.seed;
    return topo;
  }
  static e2e::TcpConfig Tcp(const e2e::RecoveryConfig& config) {
    e2e::TcpConfig tcp;
    tcp.nodelay = true;
    tcp.features = config.features;
    tcp.cc.algorithm = config.cc;
    tcp.e2e_exchange_interval = config.exchange_interval;
    return tcp;
  }

  uint64_t seed_;
};

// ---------------------------------------------------------------------------
// fleet_leafspine

constexpr int kFleetConnections = 16384;
constexpr int kFleetServers = 4;

class FleetLeafSpine : public Workload {
 public:
  explicit FleetLeafSpine(uint64_t seed) : seed_(seed) {}

  // Set-up measured directly: the same fabric and per-connection TCP
  // configuration RunFleetExperiment builds, through FabricTopology and
  // Connect.
  SetupOutcome Setup(SpanLog* spans) override {
    const e2e::FleetExperimentConfig config = Config(FleetWorkers());
    e2e::TcpConfig client_tcp = e2e::RedisExperimentConfig::DefaultClientTcp();
    e2e::TcpConfig server_tcp = e2e::RedisExperimentConfig::DefaultServerTcp();
    client_tcp.e2e_exchange_interval = config.exchange_interval;
    server_tcp.e2e_exchange_interval = config.exchange_interval;

    SetupOutcome out;
    ReleaseFreeMemory();
    const double rss0 = static_cast<double>(RssBytes());
    std::unique_ptr<e2e::FabricTopology> topo;
    {
      ScopedSpan span(spans, "testbed.build");
      topo = std::make_unique<e2e::FabricTopology>(config.fabric);
      out.build_s = span.Stop();
    }
    const double rss1 = static_cast<double>(RssBytes());
    {
      ScopedSpan span(spans, "tcp.connect");
      for (int i = 0; i < kFleetConnections; ++i) {
        topo->Connect(i, i % kFleetServers, static_cast<uint64_t>(i + 1), client_tcp, server_tcp);
      }
      out.connect_s = span.Stop();
    }
    const double rss2 = static_cast<double>(RssBytes());
    {
      ScopedSpan span(spans, "testbed.teardown");
      topo.reset();
      out.teardown_s = span.Stop();
    }
    out.setup_s = out.build_s + out.connect_s;
    out.rss_build_bytes = rss1 - rss0;
    out.rss_connect_bytes = rss2 - rss1;
    out.census = CensusOf(1, kFleetConnections + kFleetServers, kFleetConnections);
    return out;
  }

  PassOutcome Pass(SpanLog* spans, const AfterCell& after_cell) override {
    PassOutcome pass;
    const double start = NowSeconds();
    const e2e::FleetExperimentConfig config = Config(FleetWorkers());
    e2e::FleetExperimentResult r;
    {
      ScopedSpan span(spans, "cell.fleet");
      r = e2e::RunFleetExperiment(config);
    }
    if (after_cell) {
      after_cell();
    }
    pass.wall_s = NowSeconds() - start;
    pass.run_s = r.wall_seconds;
    pass.sim_s = (config.warmup + config.measure + config.drain).ToSeconds();
    CellOutcome cell;
    cell.name = "fleet";
    cell.fingerprint = FleetFingerprint(r);
    Expect(r.forwarding_misses == 0, "forwarding misses", &cell);
    Expect(Near(r.achieved_krps, r.offered_krps, 0.10), "achieved load off offered", &cell);
    Expect(FinitePositive(r.measured_mean_us), "no measured latency", &cell);
    Expect(r.queue_domains > static_cast<uint64_t>(kFleetConnections),
           "fleet did not run domain-partitioned", &cell);
    pass.cells.push_back(cell);
    pass.layers["apps.requests"] = static_cast<double>(r.requests_completed);
    pass.layers["apps.achieved_krps"] = r.achieved_krps;
    pass.layers["tcp.retransmits"] = static_cast<double>(r.retransmits);
    pass.layers["net.switch_drops"] = static_cast<double>(r.switch_tail_drops);
    pass.layers["net.forwarding_misses"] = static_cast<double>(r.forwarding_misses);

    last_engine_.events = static_cast<double>(r.events_fired);
    last_engine_.run_s = r.wall_seconds;
    last_engine_.queue_peak_max = static_cast<double>(r.queue_peak_max);
    last_engine_.queue_peak_mean = r.queue_peak_mean;
    last_engine_.domains = static_cast<double>(r.queue_domains);
    last_fingerprint_ = cell.fingerprint;
    return pass;
  }

  // The engine numbers of the last pass, plus the same cell at one worker
  // for the shard speed-up and the worker-count identity check.
  EngineView Engine(SpanLog* spans) override {
    if (last_engine_.events == 0) {
      Pass(spans, nullptr);
    }
    EngineView view = last_engine_;
    e2e::FleetExperimentResult one;
    {
      ScopedSpan span(spans, "cell.fleet.1worker");
      one = e2e::RunFleetExperiment(Config(1));
    }
    view.shard_identical = FleetFingerprint(one) == last_fingerprint_;
    const double rate_n = view.events / view.run_s;
    const double rate_1 = static_cast<double>(one.events_fired) / one.wall_seconds;
    view.shard_speedup = rate_n / rate_1;
    return view;
  }

  bool ReplayOnClassicEngine(SpanLog* spans, const AfterCell& after_cell) override {
    {
      ScopedSpan span(spans, "cell.fleet.classic");
      e2e::RunFleetExperiment(Config(0));
    }
    after_cell();
    return true;
  }

 private:
  static uint64_t FleetFingerprint(const e2e::FleetExperimentResult& r) {
    return Fingerprint()
        .Add(r.requests_completed)
        .Add(r.measured_mean_us)
        .Add(r.measured_p99_us)
        .Add(r.retransmits)
        .Add(r.switch_tail_drops)
        .Add(r.forwarding_misses)
        .Add(r.events_fired)
        .value();
  }

  // The engine_perf shard-scaling cell shape: ~1 request/s per connection,
  // so the traffic is timer-dominated, like a mostly idle production fleet.
  e2e::FleetExperimentConfig Config(int workers) const {
    e2e::FleetExperimentConfig config;
    config.fabric = e2e::FleetExperimentConfig::DefaultFleetFabric(kFleetConnections);
    config.fabric.shape = e2e::FabricShape::kLeafSpine;
    config.fabric.num_leaves = 3;
    config.fabric.num_spines = 2;
    config.fabric.num_servers = kFleetServers;
    config.fabric.seed = CellSeed(seed_, 1);
    config.fabric.shards = workers;
    config.total_rate_rps = kFleetConnections;
    config.warmup = Duration::Millis(10);
    config.measure = Duration::Millis(200);
    config.drain = Duration::Millis(10);
    config.collect_interval = Duration::Zero();  // Lean: no per-connection observers.
    config.exchange_interval = Duration::Millis(10);
    config.prefill_store = false;
    config.seed = CellSeed(seed_, 0);
    return config;
  }

  uint64_t seed_;
  EngineView last_engine_;
  uint64_t last_fingerprint_ = 0;
};

}  // namespace

int FleetWorkers() { return std::min(AvailableCpus(), 4); }

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "paper_pair") {
    return std::make_unique<PaperPair>(seed);
  }
  if (name == "lossy_bulk") {
    return std::make_unique<LossyBulk>(seed);
  }
  if (name == "fleet_leafspine") {
    return std::make_unique<FleetLeafSpine>(seed);
  }
  return nullptr;
}

}  // namespace perfbench
