#include "src/testbed/buffer_sizing.h"

#include <cassert>
#include <functional>
#include <optional>

#include "src/tcp/tcp_config.h"

namespace e2e {

uint64_t BdpBytes(double bottleneck_bps, Duration rtt) {
  return static_cast<uint64_t>(bottleneck_bps / 8.0 * rtt.ToSeconds());
}

Duration BufferSizingBaseRtt(const BufferSizingConfig& config) {
  // Two 1.5 us edge hops each way (FabricConfig's default), plus the trunk
  // on the dumbbell (one hop) or the leaf-spine core (leaf->spine->leaf,
  // two hops). Serialization at these rates is negligible next to it.
  Duration one_way = Duration::MicrosF(3.0);
  if (config.shape == FabricShape::kDumbbell) {
    one_way += config.trunk_propagation;
  } else if (config.shape == FabricShape::kLeafSpine) {
    one_way += config.trunk_propagation * 2;
  }
  return one_way * 2;
}

BufferSizingResult RunBufferSizing(const BufferSizingConfig& config) {
  const int n = config.num_flows;
  assert(n >= 1);

  FabricConfig fabric;
  if (config.shape == FabricShape::kDumbbell) {
    fabric = FabricConfig::Dumbbell(n, 1, config.bottleneck_bps);
    fabric.trunk_link.propagation = config.trunk_propagation;
    fabric.trunk_port.buffer_bytes = config.buffer_bytes;
    fabric.trunk_port.ecn_threshold_bytes = config.ecn_threshold_bytes;
  } else if (config.shape == FabricShape::kLeafSpine) {
    // One server per flow so the receive capacity (n x 100G edges) always
    // exceeds the core — the client rack's uplinks stay the unique
    // bottleneck instead of a single server's edge port.
    fabric = FabricConfig::LeafSpine(n, n, /*leaves=*/2, config.num_spines,
                                     config.bottleneck_bps);
    fabric.client_leaf_pin = 1;
    fabric.server_leaf_pin = 0;
    fabric.trunk_link.propagation = config.trunk_propagation;
    fabric.trunk_port.buffer_bytes = config.buffer_bytes;
    fabric.trunk_port.ecn_threshold_bytes = config.ecn_threshold_bytes;
  } else {
    fabric = FabricConfig::Star(n, 1);
    fabric.server_port.buffer_bytes = config.buffer_bytes;
    fabric.server_port.ecn_threshold_bytes = config.ecn_threshold_bytes;
  }
  fabric.seed = config.seed;
  fabric.shards = config.shards;

  FabricTopology topo(fabric);
  Simulator& sim = topo.sim();

  TcpConfig client_tcp;
  client_tcp.nodelay = true;  // Bulk flows; Nagle never binds at 64K writes.
  client_tcp.sndbuf_bytes = config.sndbuf_bytes;
  client_tcp.rcvbuf_bytes = config.rcvbuf_bytes;
  client_tcp.e2e_exchange_interval = Duration::Zero();  // Pure transport.
  client_tcp.cc.algorithm = config.algorithm;
  client_tcp.cc.ecn = config.ecn;
  // Datacenter RTO: the Linux 200 ms floor is three orders of magnitude
  // above these ~100 us RTTs, so a tail loss would idle a flow for the
  // whole measurement window (the classic incast RTO_min problem).
  client_tcp.rtt.initial_rto = Duration::Millis(10);
  client_tcp.rtt.min_rto = Duration::Millis(1);
  const TcpConfig server_tcp = client_tcp;

  std::vector<ConnectedPair> conns(static_cast<size_t>(n));
  std::vector<uint64_t> rx_bytes(static_cast<size_t>(n), 0);  // App reads.
  for (int i = 0; i < n; ++i) {
    const int server_idx = config.shape == FabricShape::kLeafSpine ? i : 0;
    conns[i] = topo.Connect(i, server_idx, static_cast<uint64_t>(i + 1), client_tcp, server_tcp);
    TcpEndpoint* src = conns[i].a;
    TcpEndpoint* dst = conns[i].b;
    dst->SetReadableCallback([dst, &rx_bytes, i] { rx_bytes[i] += dst->Recv().bytes; });
    // Keep the send buffer full for the whole run; every refill happens
    // from the writable callback once acks free space.
    auto pump = [src, chunk = config.chunk_bytes] {
      while (src->Send(chunk, MessageRecord{})) {
      }
    };
    src->SetWritableCallback(pump);
    // The initial fill (and the CPU work Send() prices) belongs to the
    // client's shard, not the global domain.
    DomainScope in_client(&sim, topo.client_host(i).domain());
    sim.Schedule(Duration::Zero(), pump);
  }

  const TimePoint measure_start = sim.Now() + config.warmup;
  const TimePoint measure_end = measure_start + config.measure;

  std::optional<TimeSeriesSampler> sampler;
  if (config.series_interval > Duration::Zero()) {
    sampler.emplace(&sim, config.series_interval);
    topo.ExportQueueGauges(&*sampler);
    sampler->Start(measure_end);
  }

  const std::vector<SwitchPort*> bottlenecks = topo.BottleneckPorts();
  assert(!bottlenecks.empty() && bottlenecks.front() != nullptr);

  LogHistogram queue_hist;
  RunningStats queue_stats;
  RunningStats cwnd_stats;
  std::function<void()> sample_tick = [&] {
    if (sim.Now() >= measure_start && sim.Now() < measure_end) {
      double q = 0;
      for (const SwitchPort* port : bottlenecks) {
        q += static_cast<double>(port->queue_bytes());
      }
      queue_hist.Add(q);
      queue_stats.Add(q);
      for (int i = 0; i < n; ++i) {
        cwnd_stats.Add(static_cast<double>(conns[i].a->congestion().cwnd_bytes()));
      }
    }
    if (sim.Now() < measure_end) {
      sim.Schedule(config.sample_interval, sample_tick);
    }
  };
  sim.Schedule(config.sample_interval, sample_tick);

  std::vector<uint64_t> rx_at_start(static_cast<size_t>(n), 0);
  std::vector<uint64_t> rx_at_end(static_cast<size_t>(n), 0);
  sim.ScheduleAt(measure_start, [&] { rx_at_start = rx_bytes; });
  sim.ScheduleAt(measure_end, [&] { rx_at_end = rx_bytes; });

  sim.RunUntil(measure_end);

  BufferSizingResult result;
  if (sampler.has_value()) {
    result.series = std::make_shared<const TimeSeries>(sampler->TakeSeries());
  }
  const double window_sec = config.measure.ToSeconds();
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double bps =
        static_cast<double>(rx_at_end[i] - rx_at_start[i]) * 8.0 / window_sec;
    result.flow_goodput_bps.push_back(bps);
    result.aggregate_goodput_bps += bps;
    if (config.shape == FabricShape::kLeafSpine && topo.client_leaf(i) != topo.server_leaf(i)) {
      result.cross_rack_goodput_bps += bps;
    }
    sum += bps;
    sum_sq += bps * bps;
  }
  // Aggregate capacity of the bottleneck port set: the trunk rate on the
  // dumbbell, all spine uplinks on the leaf-spine, the edge rate on the
  // star — and only traffic that crosses it counts toward utilization.
  double bottleneck_bps = fabric.edge_link.bandwidth_bps;
  double crossing_goodput_bps = result.aggregate_goodput_bps;
  if (config.shape == FabricShape::kDumbbell) {
    bottleneck_bps = config.bottleneck_bps;
  } else if (config.shape == FabricShape::kLeafSpine) {
    bottleneck_bps = config.bottleneck_bps * static_cast<double>(config.num_spines);
    crossing_goodput_bps = result.cross_rack_goodput_bps;
  }
  result.bottleneck_utilization = crossing_goodput_bps / bottleneck_bps;
  result.jain_fairness = sum_sq > 0 ? sum * sum / (n * sum_sq) : 0;

  result.mean_queue_bytes = queue_stats.mean();
  result.p99_queue_bytes = queue_hist.Percentile(99);
  result.max_queue_bytes = queue_stats.max();
  const double drain_us_per_byte = 8.0 / bottleneck_bps * 1e6;
  result.mean_queue_delay_us = result.mean_queue_bytes * drain_us_per_byte;
  result.p99_queue_delay_us = result.p99_queue_bytes * drain_us_per_byte;

  for (const SwitchPort* port : bottlenecks) {
    result.drops += port->counters().tail_drops;
    result.ecn_marked += port->counters().ecn_marked;
  }

  for (int i = 0; i < n; ++i) {
    const TcpEndpoint::Stats& client = conns[i].a->stats();
    const TcpEndpoint::Stats& server = conns[i].b->stats();
    result.retransmits += client.retransmits;
    result.ce_received += server.ce_received;
    result.ece_received += client.ece_received;
    result.cwr_sent += client.cwr_sent;
    result.cc_decreases += conns[i].a->congestion().decrease_events();
  }
  result.mean_cwnd_bytes = cwnd_stats.mean();
  return result;
}

}  // namespace e2e
