// The two-host topology used by the paper-reproduction experiments: a
// client and a server connected by a full-duplex link, mirroring the
// paper's pair of machines with 100 Gbps NICs. Since the fabric subsystem
// landed this is a thin facade over FabricTopology's kDirect shape (see
// src/testbed/fabric_topology.h for star/dumbbell/incast multi-host
// topologies); wiring, naming, and seed streams are unchanged.
//
// Each direction can carry an impairment pipeline (bursty loss, reordering,
// duplication, corruption, jitter — see src/net/impair) installed between
// the link and the receiving NIC, plus a scripted schedule of link-parameter
// rewrites (time-varying bandwidth/propagation/loss). Default-constructed
// impairment configs leave the path pristine and add no per-packet work.

#ifndef SRC_TESTBED_TOPOLOGY_H_
#define SRC_TESTBED_TOPOLOGY_H_

#include <cstdint>

#include "src/net/host.h"
#include "src/net/impair/impairment.h"
#include "src/net/link.h"
#include "src/net/nic.h"
#include "src/sim/simulator.h"
#include "src/tcp/stack.h"
#include "src/testbed/fabric_topology.h"

namespace e2e {

struct TopologyConfig {
  Link::Config link;  // Applied to both directions.
  Nic::Config client_nic;
  Nic::Config server_nic;
  StackCosts client_stack_costs;
  StackCosts server_stack_costs;
  // Per-direction impairment specs (stages + link schedule). c2s is the
  // client->server request path, s2c the server->client response path.
  ImpairmentConfig c2s_impairment;
  ImpairmentConfig s2c_impairment;
  uint64_t seed = 42;

  TopologyConfig() {
    link.bandwidth_bps = 100e9;  // 100 Gbps ConnectX-5 class.
    link.propagation = Duration::MicrosF(3.0);
  }

  // The equivalent kDirect fabric spec.
  FabricConfig ToFabric() const {
    FabricConfig fabric;
    fabric.shape = FabricShape::kDirect;
    fabric.num_clients = 1;
    fabric.num_servers = 1;
    fabric.edge_link = link;
    fabric.client.nic = client_nic;
    fabric.client.stack_costs = client_stack_costs;
    fabric.server.nic = server_nic;
    fabric.server.stack_costs = server_stack_costs;
    fabric.c2s_impairment = c2s_impairment;
    fabric.s2c_impairment = s2c_impairment;
    fabric.seed = seed;
    return fabric;
  }
};

class TwoHostTopology {
 public:
  explicit TwoHostTopology(const TopologyConfig& config = TopologyConfig{})
      : fabric_(config.ToFabric()) {}

  Simulator& sim() { return fabric_.sim(); }
  Host& client_host() { return fabric_.client_host(0); }
  Host& server_host() { return fabric_.server_host(0); }
  TcpStack& client_stack() { return fabric_.client_stack(0); }
  TcpStack& server_stack() { return fabric_.server_stack(0); }
  Link& client_to_server_link() { return fabric_.client_uplink(0); }
  Link& server_to_client_link() { return fabric_.server_uplink(0); }

  // Null when the corresponding direction has no impairment stages.
  const ImpairmentChain* c2s_impairment() const { return fabric_.c2s_impairment(0); }
  const ImpairmentChain* s2c_impairment() const { return fabric_.s2c_impairment(0); }

  // The underlying single-link fabric (e.g. for ExportCounters).
  FabricTopology& fabric() { return fabric_; }

  // Creates one client<->server connection. Client is the "A" side.
  ConnectedPair Connect(uint64_t conn_id, const TcpConfig& client_config,
                        const TcpConfig& server_config) {
    return fabric_.Connect(0, 0, conn_id, client_config, server_config);
  }

 private:
  FabricTopology fabric_;
};

}  // namespace e2e

#endif  // SRC_TESTBED_TOPOLOGY_H_
