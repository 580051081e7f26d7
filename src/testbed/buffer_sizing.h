// Buffer-sizing study driver (DESIGN.md §13): one cell of the classic
// experiment behind the BDP and Appenzeller BDP/sqrt(n) rules, updated with
// ECN/DCTCP per Spang et al., "Updating the Theory of Buffer Sizing".
//
// n long-lived bulk flows (each client pours data as fast as its windows
// allow) share one bottleneck — the trunk port of a dumbbell, the server's
// downlink port of an incast star, or the remote rack's ECMP uplink ports
// of an oversubscribed leaf-spine — whose buffer, ECN threshold, and
// congestion-control algorithm the sweep varies. The driver reports what
// the theory is about: bottleneck utilization, time-sampled queue
// occupancy (mean / p99, and the queueing *delay* those bytes represent at
// the bottleneck rate), drop and mark counts, the ECN round trip
// (CE -> ECE -> decrease -> CWR), and Jain fairness across flows.
//
// Everything is deterministic: the driver draws no randomness of its own,
// and the fabric's keyed-seed contract covers the rest, so one cell is
// replayable and sweep cells are independent (bench/buffer_sizing_sweep
// runs them on a worker pool with in-order commits).

#ifndef SRC_TESTBED_BUFFER_SIZING_H_
#define SRC_TESTBED_BUFFER_SIZING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/timeseries.h"
#include "src/sim/stats.h"
#include "src/sim/time.h"
#include "src/tcp/cc/congestion_control.h"
#include "src/testbed/fabric_topology.h"

namespace e2e {

struct BufferSizingConfig {
  // kDumbbell:  n clients, 1 server, bottleneck = the shared trunk.
  // kStar:      incast — bottleneck = the server's downlink port.
  // kLeafSpine: 2 leaves x `num_spines` spines; all n clients pinned to
  //             leaf 1, one server per flow pinned to leaf 0, so every
  //             flow crosses the core and the receive capacity (n edge
  //             ports) can never bind before it. The bottleneck is the
  //             client rack's ECMP uplink ports. `bottleneck_bps` is the
  //             per-spine trunk rate — size the core below the rack's
  //             aggregate edge rate for an oversubscribed fabric.
  FabricShape shape = FabricShape::kDumbbell;
  int num_flows = 4;
  int num_spines = 2;  // kLeafSpine only (leaves fixed at 2).

  CcAlgorithm algorithm = CcAlgorithm::kReno;
  bool ecn = false;  // Endpoint-side CE echo (pair with ecn_threshold_bytes).

  // Bottleneck port provisioning. buffer_bytes = 0 means unlimited;
  // ecn_threshold_bytes = 0 disables marking.
  size_t buffer_bytes = 128 * 1024;
  size_t ecn_threshold_bytes = 0;

  // Dumbbell trunk rate, or the per-spine leaf-spine trunk rate; the
  // star's bottleneck runs at the 100 Gbps edge rate instead (incast needs
  // the fan-in, not a slow pipe).
  double bottleneck_bps = 10e9;
  // One-way trunk propagation. The default stretches the dumbbell RTT to
  // ~110 us end to end so a BDP (~10G * 110us = ~137 KB) is several dozen
  // segments — the regime where the sizing rules separate.
  Duration trunk_propagation = Duration::Micros(50);

  uint64_t chunk_bytes = 64 * 1024;  // App write size per send().
  uint64_t sndbuf_bytes = 8 * 1024 * 1024;
  uint64_t rcvbuf_bytes = 8 * 1024 * 1024;

  Duration warmup = Duration::Millis(20);
  Duration measure = Duration::Millis(80);
  Duration sample_interval = Duration::Micros(50);  // Queue/cwnd sampling.
  uint64_t seed = 7;

  // When > 0, a TimeSeriesSampler records every switch port's queue gauges
  // (FabricTopology::ExportQueueGauges) every `series_interval` and the
  // result carries the series. Sampling is read-only, but its ticks are
  // engine events, so sweeps take the series from a same-seed re-run
  // (bench/buffer_sizing_sweep).
  Duration series_interval = Duration::Zero();

  // Passed through to FabricConfig::shards (0 = classic engine; >= 1 runs
  // domain-partitioned, bit-identical across values >= 1).
  int shards = 0;
};

struct BufferSizingResult {
  // Goodput = bytes the server application read during the measure window.
  double aggregate_goodput_bps = 0;
  // Goodput that crossed the bottleneck, over its aggregate capacity. On
  // the leaf-spine that is cross-rack goodput (all of it, with the pinned
  // placement — the accounting still excludes any rack-local flow so a
  // future mixed scenario can't inflate core utilization).
  double bottleneck_utilization = 0;
  double cross_rack_goodput_bps = 0;  // kLeafSpine only, else 0.
  std::vector<double> flow_goodput_bps;
  double jain_fairness = 0;  // (sum x)^2 / (n * sum x^2), 1 = perfectly fair.

  // Time-sampled bottleneck queue occupancy over the measure window.
  double mean_queue_bytes = 0;
  double p99_queue_bytes = 0;
  double max_queue_bytes = 0;
  // The delay those bytes represent draining at the bottleneck rate.
  double mean_queue_delay_us = 0;
  double p99_queue_delay_us = 0;

  // Bottleneck port counters, whole run.
  uint64_t drops = 0;
  uint64_t ecn_marked = 0;

  // Sender-side totals across all client endpoints, whole run.
  uint64_t retransmits = 0;
  uint64_t ce_received = 0;   // Server side: CE-marked arrivals.
  uint64_t ece_received = 0;  // Client side: echoed marks that came back.
  uint64_t cwr_sent = 0;      // Client side: reductions announced.
  uint64_t cc_decreases = 0;  // Client congestion reactions of any kind.

  double mean_cwnd_bytes = 0;  // Time-sampled mean across client flows.

  // Aligned gauge samples; non-null iff config.series_interval > 0.
  std::shared_ptr<const TimeSeries> series;
};

// Bandwidth-delay product in bytes for a bottleneck rate and an RTT.
uint64_t BdpBytes(double bottleneck_bps, Duration rtt);

// The cell's end-to-end base RTT (propagation + per-hop serialization is
// negligible): what BDP provisioning should use.
Duration BufferSizingBaseRtt(const BufferSizingConfig& config);

BufferSizingResult RunBufferSizing(const BufferSizingConfig& config);

}  // namespace e2e

#endif  // SRC_TESTBED_BUFFER_SIZING_H_
