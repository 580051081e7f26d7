// General multi-host topology builder: N client hosts and M server hosts
// joined by a switched fabric (src/net/fabric), replacing the hard-wired
// client<->server pair as the substrate every full-stack experiment runs on.
//
// Shapes:
//
//   kDirect    client0 <======================> server0
//              The original TwoHostTopology wiring: one client, one server,
//              a full-duplex link, no switch. TwoHostTopology is now a thin
//              facade over this shape.
//
//   kStar      client0 --\                /-- server0
//              client1 ---- [ switch ] ----
//              ...      --/                \-- serverM
//              Every host has an uplink into one switch and a dedicated
//              switch output port + downlink back. All client->server
//              traffic shares each server's downlink port — the shared
//              bottleneck queue where fleet-scale batching effects live.
//              An *incast* topology is a star whose server port buffer is
//              deliberately small (set FabricConfig::server_port.buffer_bytes).
//
//   kDumbbell  clients -- [ left switch ] ==trunk== [ right switch ] -- servers
//              As kStar, but clients and servers hang off different
//              switches joined by a single trunk link per direction whose
//              port models the classic shared bottleneck.
//
//   kLeafSpine          [ spine0 ]   [ spine1 ]  ...
//                        /   |   +---+   |   +--+
//                   [ leaf0 ] [ leaf1 ] [ leaf2 ] ...
//                     |  |      |  |      |  |
//                    hosts     hosts     hosts
//              A 2-tier Clos: `num_leaves` racks, each host attached to
//              leaf (index % num_leaves), every leaf connected to every
//              spine by one trunk link per direction. A leaf routes its
//              local hosts directly and sends everything else through its
//              ECMP uplink group — rendezvous-hashed on the packet's
//              (src_host, dst_host) flow key, so each flow pins to one
//              spine (no intra-flow reordering) and adding a spine never
//              re-paths existing flows. Each leaf and each spine is its own
//              simulator domain, so cross-rack traffic parallelizes across
//              switch domains instead of funnelling through one.
//
// Impairments compose exactly as on the two-host topology: the c2s chain
// installs between the final hop and each *server* NIC, the s2c chain
// between the final hop and each *client* NIC; link schedules apply to the
// corresponding final-hop links. On kDirect this reproduces the original
// semantics bit-for-bit.
//
// Seeding contract (fleet determinism): every randomized component derives
// its seed as DeriveSeed(config.seed, domain, index) with the domain/index
// assignment below — keyed by the component's identity, not by construction
// order, so same-seed runs are byte-identical regardless of host count and
// adding a host never perturbs another component's stream:
//
//   domain kFabricSeedUplink     index = host id   (host -> switch link)
//   domain kFabricSeedDownlink   index = host id   (switch -> host link)
//   domain kFabricSeedC2sImpair  index = host id   (chain before server NIC)
//   domain kFabricSeedS2cImpair  index = host id   (chain before client NIC)
//   domain kFabricSeedTrunk      index = 0 (left->right), 1 (right->left)
//   domain kFabricSeedLeafSpineUp    index = leaf << 16 | spine (leaf -> spine)
//   domain kFabricSeedLeafSpineDown  index = leaf << 16 | spine (spine -> leaf)
//   domain kFabricSeedEcmp       index = spine — the ECMP member key, the
//                                same on every leaf, so a spine's hash
//                                identity is global and stable under
//                                leaf/spine additions
//
// Host ids are 1..N for clients and N+1..N+M for servers (0 = unaddressed).
// Exception: the kDirect shape keeps TwoHostTopology's original constants
// (seed*2+1 .. seed*2+4) so existing two-host experiments replay their
// exact historical streams.

#ifndef SRC_TESTBED_FABRIC_TOPOLOGY_H_
#define SRC_TESTBED_FABRIC_TOPOLOGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/net/fabric/switch.h"
#include "src/net/host.h"
#include "src/net/impair/impairment.h"
#include "src/net/link.h"
#include "src/net/nic.h"
#include "src/sim/random.h"
#include "src/sim/simulator.h"
#include "src/tcp/stack.h"
#include "src/obs/registry.h"
#include "src/obs/timeseries.h"

namespace e2e {

inline constexpr uint64_t kFabricSeedUplink = 1;
inline constexpr uint64_t kFabricSeedDownlink = 2;
inline constexpr uint64_t kFabricSeedC2sImpair = 3;
inline constexpr uint64_t kFabricSeedS2cImpair = 4;
inline constexpr uint64_t kFabricSeedTrunk = 5;
inline constexpr uint64_t kFabricSeedLeafSpineUp = 6;
inline constexpr uint64_t kFabricSeedLeafSpineDown = 7;
inline constexpr uint64_t kFabricSeedEcmp = 8;

enum class FabricShape {
  kDirect,     // 1 client, 1 server, no switch (TwoHostTopology wiring).
  kStar,       // One switch, every host on its own port.
  kDumbbell,   // Two switches joined by a trunk bottleneck.
  kLeafSpine,  // 2-tier Clos: leaves (racks) x spines, ECMP uplinks.
};

// Per-side host parameters, applied to every host on that side.
struct FabricHostSpec {
  Nic::Config nic;
  StackCosts stack_costs;
};

struct FabricConfig {
  FabricShape shape = FabricShape::kStar;
  int num_clients = 1;
  int num_servers = 1;
  FabricHostSpec client;
  FabricHostSpec server;

  // Leaf-spine fan-out (kLeafSpine only): hosts spread round-robin over
  // `num_leaves` racks; every leaf links to every spine.
  int num_leaves = 2;
  int num_spines = 2;
  // Rack placement overrides (kLeafSpine only): when >= 0, every host on
  // that side lands on the given leaf instead of round-robin. Pinning the
  // sides to different racks builds the classic oversubscribed-core
  // scenario — all traffic crosses the client rack's ECMP uplinks.
  int client_leaf_pin = -1;
  int server_leaf_pin = -1;

  // Host <-> switch hops, both directions (also the kDirect link config).
  Link::Config edge_link;
  // Inter-switch hops, both directions: the dumbbell trunk pair, or every
  // leaf<->spine link on kLeafSpine.
  Link::Config trunk_link;

  // Switch output buffers, by what the port faces. trunk_port covers every
  // inter-switch port: the dumbbell trunk pair, and on kLeafSpine both the
  // leaf->spine uplink ports and the spine->leaf downlink ports.
  SwitchPortConfig client_port;
  SwitchPortConfig server_port;
  SwitchPortConfig trunk_port;

  // Installed before every server NIC (c2s) / client NIC (s2c); the link
  // schedules apply to the corresponding final-hop links.
  ImpairmentConfig c2s_impairment;
  ImpairmentConfig s2c_impairment;

  uint64_t seed = 42;

  // Within-cell parallel DES (DESIGN.md §16). 0 = the classic
  // single-threaded engine, untouched. >= 1 partitions the simulation into
  // one domain per host plus one per switch and runs barrier epochs with
  // `shards` worker threads; results are bit-identical for every value
  // >= 1 (the domain layout is fixed — workers only change which thread
  // executes which domain). The kDirect shape has no fabric to cut across,
  // so it stays single-domain (and output-identical to shards == 0).
  int shards = 0;

  FabricConfig() {
    edge_link.bandwidth_bps = 100e9;  // 100 Gbps ConnectX-5 class.
    edge_link.propagation = Duration::MicrosF(1.5);
    trunk_link = edge_link;
  }

  // N clients and M servers on one switch.
  static FabricConfig Star(int clients, int servers = 1);
  // Clients and servers on separate switches, trunk at `trunk_bps`.
  static FabricConfig Dumbbell(int clients, int servers, double trunk_bps);
  // 2-tier Clos: hosts round-robin over `leaves` racks, every leaf linked
  // to every spine at `trunk_bps` per link, ECMP across spines.
  static FabricConfig LeafSpine(int clients, int servers, int leaves, int spines,
                                double trunk_bps = 100e9);
};

class FabricTopology {
 public:
  explicit FabricTopology(const FabricConfig& config);

  Simulator& sim() { return sim_; }
  const FabricConfig& config() const { return config_; }

  int num_clients() const { return config_.num_clients; }
  int num_servers() const { return config_.num_servers; }

  Host& client_host(int i) { return *client_hosts_.at(i); }
  Host& server_host(int i) { return *server_hosts_.at(i); }
  TcpStack& client_stack(int i) { return *client_stacks_.at(i); }
  TcpStack& server_stack(int i) { return *server_stacks_.at(i); }

  // Connects client `ci` to server `si`; the client is the "A" side.
  ConnectedPair Connect(int ci, int si, uint64_t conn_id, const TcpConfig& client_config,
                        const TcpConfig& server_config) {
    return ConnectPair(client_stack(ci), server_stack(si), conn_id, client_config,
                       server_config);
  }

  // The switch client 0 / server 0 attaches to. Same object on kStar,
  // distinct on kDumbbell, the host's leaf on kLeafSpine, null on kDirect.
  Switch* client_switch() {
    return switches_.empty() ? nullptr : switches_[client_switch_idx_].get();
  }
  Switch* server_switch() {
    return switches_.empty() ? nullptr : switches_[server_switch_idx_].get();
  }
  size_t num_switches() const { return switches_.size(); }
  Switch& fabric_switch(size_t i) { return *switches_.at(i); }

  // kLeafSpine accessors (0 / null outside that shape). Leaves occupy
  // switches_[0 .. num_leaves), spines the tail.
  int num_leaves() const { return IsLeafSpine() ? config_.num_leaves : 0; }
  int num_spines() const { return IsLeafSpine() ? config_.num_spines : 0; }
  Switch& leaf_switch(int l) { return *switches_.at(l); }
  Switch& spine_switch(int s) { return *switches_.at(config_.num_leaves + s); }
  // The rack (leaf index) a host lives on: the side's pin if set, else
  // round-robin.
  int client_leaf(int ci) const {
    return config_.client_leaf_pin >= 0 ? config_.client_leaf_pin : ci % config_.num_leaves;
  }
  int server_leaf(int si) const {
    return config_.server_leaf_pin >= 0 ? config_.server_leaf_pin : si % config_.num_leaves;
  }

  // The host->fabric uplink (== the host NIC's TX link).
  Link& client_uplink(int ci);
  Link& server_uplink(int si);

  // Null when the corresponding direction has no impairment stages.
  const ImpairmentChain* c2s_impairment(int si = 0) const;
  const ImpairmentChain* s2c_impairment(int ci = 0) const;

  // The engineered client->server bottleneck port set. kDumbbell: the
  // client switch's trunk port. kStar: server 0's downlink port.
  // kLeafSpine: the client rack's ECMP uplink ports, which every flow
  // crosses when clients and servers are pinned to different racks
  // (FabricConfig::client_leaf_pin / server_leaf_pin). Empty on kDirect.
  std::vector<SwitchPort*> BottleneckPorts();

  // Sum of tail drops / ECN marks / forwarding misses across every switch
  // port (0 on kDirect).
  uint64_t total_switch_drops() const;
  uint64_t total_ecn_marked() const;
  uint64_t total_forwarding_misses() const;

  // Registers every NIC, link, and switch port with `registry` so
  // collectors and benches can sample fabric-wide counters without
  // hard-coding endpoint fields.
  void ExportCounters(CounterRegistry* registry) const;

  // Adds one gauge column per switch port to `sampler` (call before
  // Start()): instantaneous queue occupancy ("<port>.queue_bytes" /
  // ".queue_packets") plus the cumulative ".ecn_marked" and ".tail_drops"
  // counters — the congestion signals the buffer-sizing study plots.
  void ExportQueueGauges(TimeSeriesSampler* sampler) const;

  struct HostAttachment {
    Link* uplink = nullptr;          // host -> fabric (the host's TX link).
    Link* downlink = nullptr;        // fabric -> host (final hop).
    std::unique_ptr<ImpairmentChain> rx_impair;  // Between downlink and NIC.
    std::unique_ptr<LinkScheduler> rx_scheduler;
  };

  // True when the fabric runs domain-partitioned (shards >= 1 on a switched
  // shape).
  bool sharded() const { return sharded_; }
  // The domain owning switch `i`'s event processing (0 when unsharded).
  uint32_t switch_domain(size_t i) const {
    return sharded_ ? switch_domains_.at(i) : 0;
  }

 private:
  Link* MakeLink(const Link::Config& link_config, uint64_t seed, std::string name);
  // Wires `downlink` -> (impairment chain?) -> the host NIC, plus the link
  // scheduler, per the per-direction impairment config.
  void FinishRxPath(HostAttachment* at, Host* host, const ImpairmentConfig& impair,
                    uint64_t impair_seed, const std::string& label);
  // Attaches one host to `sw`: uplink into the switch, a dedicated output
  // port + downlink back, and a forwarding entry for the host id.
  void AttachHost(Switch* sw, const FabricHostSpec& spec, const char* side, int index, int count,
                  uint32_t host_id, const SwitchPortConfig& port_config,
                  std::vector<std::unique_ptr<Host>>* hosts, HostAttachment* at,
                  uint32_t host_domain, uint32_t sw_domain);
  void BuildDirect();
  void BuildSwitched();
  void BuildLeafSpine();
  // Installs the per-direction RX impairment chains on every final hop.
  void FinishAllRxPaths();
  bool IsLeafSpine() const { return config_.shape == FabricShape::kLeafSpine; }

  FabricConfig config_;
  Simulator sim_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Switch>> switches_;
  std::vector<std::unique_ptr<Host>> client_hosts_;
  std::vector<std::unique_ptr<Host>> server_hosts_;
  std::vector<std::unique_ptr<TcpStack>> client_stacks_;
  std::vector<std::unique_ptr<TcpStack>> server_stacks_;
  std::vector<HostAttachment> client_at_;
  std::vector<HostAttachment> server_at_;
  bool sharded_ = false;
  std::vector<uint32_t> client_domains_;
  std::vector<uint32_t> server_domains_;
  std::vector<uint32_t> switch_domains_;
  // Indices into switches_ backing client_switch()/server_switch().
  size_t client_switch_idx_ = 0;
  size_t server_switch_idx_ = 0;
};

}  // namespace e2e

#endif  // SRC_TESTBED_FABRIC_TOPOLOGY_H_
