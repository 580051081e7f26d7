#include "src/testbed/recovery.h"

#include <functional>
#include <memory>

#include "src/testbed/topology.h"

namespace e2e {

RecoveryResult RunRecoveryExperiment(const RecoveryConfig& config) {
  TopologyConfig topo_config;
  topo_config.link.bandwidth_bps = config.link_bps;
  topo_config.link.propagation = config.propagation;
  topo_config.c2s_impairment = config.c2s_impairment;
  topo_config.s2c_impairment = config.s2c_impairment;
  topo_config.seed = config.seed;
  TwoHostTopology topo(topo_config);
  Simulator& sim = topo.sim();

  TcpConfig tcp;
  tcp.nodelay = true;
  tcp.features = config.features;
  tcp.cc.algorithm = config.cc;
  tcp.cc.ecn = config.cc == CcAlgorithm::kDctcp;
  tcp.e2e_exchange_interval = config.exchange_interval;
  ConnectedPair conn = topo.Connect(1, tcp, tcp);

  // Health graded on the client: its estimator consumes the server's
  // exchange payloads, which ride the (option-crowded) reverse path.
  EstimatorHealth health(config.health, sim.Now());
  conn.a->SetEstimateCallback([&sim, &health](const ConnectionEstimator& est) {
    health.OnExchange(sim.Now(), est.last_verdict());
  });
  if (config.health_tick > Duration::Zero()) {
    const int64_t ticks = config.run.nanos() / config.health_tick.nanos();
    for (int64_t i = 1; i <= ticks; ++i) {
      sim.Schedule(config.health_tick * i,
                   [&sim, &health, &conn] { health.Tick(sim.Now(), conn.a->last_rx()); });
    }
  }

  CpuCore& client_app = topo.client_host().app_core();
  CpuCore& server_app = topo.server_host().app_core();

  uint64_t next_id = 1;
  if (config.workload == RecoveryWorkload::kBulk) {
    // Keep the send buffer full; the writable callback refills it.
    auto pump = std::make_shared<std::function<void()>>();
    *pump = [&conn, &config, &next_id] {
      MessageRecord rec;
      rec.id = next_id;
      while (conn.a->Send(config.bulk_chunk, rec)) {
        rec.id = ++next_id;
      }
    };
    conn.a->SetWritableCallback([&client_app, pump] {
      client_app.SubmitFixed(Duration::Nanos(100), [pump] { (*pump)(); });
    });
    client_app.SubmitFixed(Duration::Nanos(100), [pump] { (*pump)(); });
  } else {
    const int64_t sends = config.run.nanos() / config.paced_interval.nanos();
    for (int64_t i = 0; i < sends; ++i) {
      sim.Schedule(config.paced_interval * i, [&sim, &client_app, &conn, &config, &next_id] {
        (void)sim;
        client_app.SubmitFixed(Duration::Nanos(100), [&conn, &config, &next_id] {
          MessageRecord rec;
          rec.id = next_id++;
          conn.a->Send(config.paced_bytes, rec);
        });
      });
    }
  }

  // Prompt reader: the receive window never binds.
  conn.b->SetReadableCallback([&server_app, &conn] {
    server_app.SubmitFixed(Duration::Nanos(200), [&conn] { conn.b->Recv(); });
  });

  sim.RunFor(config.run);

  const TimePoint end = sim.Now();
  const TcpEndpoint::Stats& cs = conn.a->stats();
  const TcpEndpoint::Stats& ss = conn.b->stats();

  RecoveryResult r;
  r.bytes_delivered = ss.bytes_received;
  const double secs = config.run.ToMicros() / 1e6;
  r.goodput_mbps = secs > 0 ? ss.bytes_received * 8.0 / 1e6 / secs : 0;

  r.retransmits = cs.retransmits;
  r.sack_retransmits = cs.sack_retransmits;
  r.rack_marked_lost = cs.rack_marked_lost;
  r.spurious_loss_reverts = cs.spurious_loss_reverts;
  r.tlp_probes = cs.tlp_probes;
  r.rto_fires = cs.rto_fires;
  r.recovery_events = cs.recovery_events;
  r.recovery_mean_us = cs.recovery_events > 0
                           ? static_cast<double>(cs.recovery_us_total) / cs.recovery_events
                           : 0;
  r.dup_segments_received = ss.dup_segments_received;

  r.srtt_us = conn.a->rtt().srtt().value_or(Duration::Zero()).ToMicros();
  r.min_rtt_us = conn.a->rtt().min_rtt().value_or(Duration::Zero()).ToMicros();
  r.rtt_samples = conn.a->rtt().samples();
  r.rtt_ts_samples = cs.rtt_ts_samples;

  r.sack_blocks_sent = cs.sack_blocks_sent + ss.sack_blocks_sent;
  r.sack_blocks_trimmed = cs.sack_blocks_trimmed + ss.sack_blocks_trimmed;
  r.exchange_deferrals = cs.exchange_deferrals + ss.exchange_deferrals;
  r.ts_omitted = cs.ts_omitted + ss.ts_omitted;
  r.exchanges_sent = cs.exchanges_sent + ss.exchanges_sent;
  r.exchanges_received = cs.exchanges_received + ss.exchanges_received;

  if (const ImpairmentChain* chain = topo.c2s_impairment()) {
    r.c2s_dropped = chain->TotalDropped();
  }
  if (const ImpairmentChain* chain = topo.s2c_impairment()) {
    r.s2c_dropped = chain->TotalDropped();
  }

  r.time_in_full_ms = health.TimeIn(HealthState::kFull, end).ToMicros() / 1000.0;
  r.time_in_local_ms = health.TimeIn(HealthState::kLocalOnly, end).ToMicros() / 1000.0;
  r.time_in_diag_ms = health.TimeIn(HealthState::kDiagAssisted, end).ToMicros() / 1000.0;
  r.time_in_static_ms = health.TimeIn(HealthState::kStatic, end).ToMicros() / 1000.0;
  r.health_demotions = health.counters().demotions;
  return r;
}

}  // namespace e2e
