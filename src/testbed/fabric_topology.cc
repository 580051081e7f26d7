#include "src/testbed/fabric_topology.h"

#include <cassert>
#include <utility>

namespace e2e {
namespace {

// Hosts keep the historical bare names when a side has exactly one member,
// so the two-host facade (and its tests) see "client"/"server" unchanged.
std::string HostName(const char* side, int index, int count) {
  return count == 1 ? side : side + std::to_string(index);
}

}  // namespace

FabricConfig FabricConfig::Star(int clients, int servers) {
  FabricConfig config;
  config.shape = FabricShape::kStar;
  config.num_clients = clients;
  config.num_servers = servers;
  return config;
}

FabricConfig FabricConfig::Dumbbell(int clients, int servers, double trunk_bps) {
  FabricConfig config;
  config.shape = FabricShape::kDumbbell;
  config.num_clients = clients;
  config.num_servers = servers;
  config.trunk_link.bandwidth_bps = trunk_bps;
  return config;
}

FabricConfig FabricConfig::LeafSpine(int clients, int servers, int leaves, int spines,
                                     double trunk_bps) {
  FabricConfig config;
  config.shape = FabricShape::kLeafSpine;
  config.num_clients = clients;
  config.num_servers = servers;
  config.num_leaves = leaves;
  config.num_spines = spines;
  config.trunk_link.bandwidth_bps = trunk_bps;
  return config;
}

FabricTopology::FabricTopology(const FabricConfig& config) : config_(config) {
  assert(config_.num_clients >= 1 && config_.num_servers >= 1);
  assert(!IsLeafSpine() || (config_.num_leaves >= 1 && config_.num_spines >= 1));
  client_at_.resize(config_.num_clients);
  server_at_.resize(config_.num_servers);
  // Domain layout for sharded runs: one domain per host and per switch, in
  // a fixed order (clients, servers, switches; leaves before spines), so
  // the layout — and with it the execution order — depends only on the
  // topology, never on the worker count. kDirect has no fabric hop to use
  // as the lookahead window and keeps the classic single-domain engine
  // regardless of `shards`.
  sharded_ = config_.shards >= 1 && config_.shape != FabricShape::kDirect;
  if (sharded_) {
    for (int i = 0; i < config_.num_clients; ++i) {
      client_domains_.push_back(sim_.AddDomain());
    }
    for (int i = 0; i < config_.num_servers; ++i) {
      server_domains_.push_back(sim_.AddDomain());
    }
    int num_switches = 1;
    if (config_.shape == FabricShape::kDumbbell) {
      num_switches = 2;
    } else if (IsLeafSpine()) {
      num_switches = config_.num_leaves + config_.num_spines;
    }
    for (int s = 0; s < num_switches; ++s) {
      switch_domains_.push_back(sim_.AddDomain());
    }
    sim_.SetWorkers(config_.shards);
  }
  if (config_.shape == FabricShape::kDirect) {
    assert(config_.num_clients == 1 && config_.num_servers == 1);
    BuildDirect();
  } else if (IsLeafSpine()) {
    BuildLeafSpine();
  } else {
    BuildSwitched();
  }
  if (sharded_) {
    // The conservative lookahead: every cross-domain handoff is a link
    // traversal, so the minimum propagation across the fabric bounds how
    // far any domain may safely run ahead of the others. Link schedules can
    // rewrite propagation mid-run, so scripted values count toward the
    // minimum too.
    Duration lookahead = Duration::Max();
    for (const auto& link : links_) {
      lookahead = std::min(lookahead, link->propagation());
    }
    for (const ImpairmentConfig* impair : {&config_.c2s_impairment, &config_.s2c_impairment}) {
      for (const LinkScheduleStep& step : impair->schedule.steps) {
        if (step.propagation.has_value()) {
          lookahead = std::min(lookahead, *step.propagation);
        }
      }
    }
    assert(lookahead > Duration::Zero());
    sim_.SetLookahead(lookahead);
  }
  for (int i = 0; i < config_.num_clients; ++i) {
    client_stacks_.push_back(
        std::make_unique<TcpStack>(&sim_, client_hosts_[i].get(), config_.client.stack_costs));
  }
  for (int i = 0; i < config_.num_servers; ++i) {
    server_stacks_.push_back(
        std::make_unique<TcpStack>(&sim_, server_hosts_[i].get(), config_.server.stack_costs));
  }
}

Link* FabricTopology::MakeLink(const Link::Config& link_config, uint64_t seed, std::string name) {
  links_.push_back(std::make_unique<Link>(&sim_, link_config, Rng(seed), std::move(name)));
  return links_.back().get();
}

void FabricTopology::FinishRxPath(HostAttachment* at, Host* host, const ImpairmentConfig& impair,
                                  uint64_t impair_seed, const std::string& label) {
  if (impair.AnyStage()) {
    at->rx_impair = std::make_unique<ImpairmentChain>(&sim_, impair, Rng(impair_seed), label);
    at->rx_impair->SetSink(&host->nic());
    at->downlink->SetSink(at->rx_impair.get());
  } else {
    at->downlink->SetSink(&host->nic());
  }
  if (!impair.schedule.empty()) {
    at->rx_scheduler = std::make_unique<LinkScheduler>(&sim_, at->downlink, impair.schedule);
    at->rx_scheduler->Start();
  }
}

void FabricTopology::BuildDirect() {
  // The original TwoHostTopology wiring, with its exact seed constants: the
  // client's TX link doubles as the server's RX "downlink" and vice versa.
  const uint64_t seed = config_.seed;
  Link* c2s = MakeLink(config_.edge_link, seed * 2 + 1, "c2s");
  Link* s2c = MakeLink(config_.edge_link, seed * 2 + 2, "s2c");

  client_hosts_.push_back(
      std::make_unique<Host>(&sim_, c2s, config_.client.nic, "client", /*id=*/1));
  server_hosts_.push_back(
      std::make_unique<Host>(&sim_, s2c, config_.server.nic, "server", /*id=*/2));

  client_at_[0].uplink = c2s;
  client_at_[0].downlink = s2c;
  server_at_[0].uplink = s2c;
  server_at_[0].downlink = c2s;

  FinishRxPath(&server_at_[0], server_hosts_[0].get(), config_.c2s_impairment, seed * 2 + 3,
               "c2s");
  FinishRxPath(&client_at_[0], client_hosts_[0].get(), config_.s2c_impairment, seed * 2 + 4,
               "s2c");
}

// Attach one host to `sw`: uplink into the switch, a dedicated output port +
// downlink back, and a forwarding entry for the host id. On sharded runs
// each link's delivery domain is its receiver's: the uplink fires in the
// switch's shard, the downlink in the host's.
void FabricTopology::AttachHost(Switch* sw, const FabricHostSpec& spec, const char* side,
                                int index, int count, uint32_t host_id,
                                const SwitchPortConfig& port_config,
                                std::vector<std::unique_ptr<Host>>* hosts, HostAttachment* at,
                                uint32_t host_domain, uint32_t sw_domain) {
  const uint64_t seed = config_.seed;
  const std::string name = HostName(side, index, count);
  at->uplink =
      MakeLink(config_.edge_link, DeriveSeed(seed, kFabricSeedUplink, host_id), name + ".up");
  at->uplink->SetSink(sw);
  at->uplink->set_dst_domain(sw_domain);
  at->downlink = MakeLink(config_.edge_link, DeriveSeed(seed, kFabricSeedDownlink, host_id),
                          name + ".down");
  at->downlink->set_dst_domain(host_domain);
  const size_t port = sw->AddPort(at->downlink, port_config, sw->name() + "." + name);
  sw->SetRoute(host_id, port);
  hosts->push_back(std::make_unique<Host>(&sim_, at->uplink, spec.nic, name, host_id));
  hosts->back()->set_domain(host_domain);
}

void FabricTopology::FinishAllRxPaths() {
  // RX impairment paths install on the final (switch -> host) hop.
  const uint64_t seed = config_.seed;
  for (int i = 0; i < config_.num_servers; ++i) {
    const uint32_t id = static_cast<uint32_t>(config_.num_clients + i + 1);
    FinishRxPath(&server_at_[i], server_hosts_[i].get(), config_.c2s_impairment,
                 DeriveSeed(seed, kFabricSeedC2sImpair, id),
                 "c2s." + server_hosts_[i]->name());
  }
  for (int i = 0; i < config_.num_clients; ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    FinishRxPath(&client_at_[i], client_hosts_[i].get(), config_.s2c_impairment,
                 DeriveSeed(seed, kFabricSeedS2cImpair, id),
                 "s2c." + client_hosts_[i]->name());
  }
}

void FabricTopology::BuildSwitched() {
  const uint64_t seed = config_.seed;
  const bool dumbbell = config_.shape == FabricShape::kDumbbell;
  switches_.push_back(std::make_unique<Switch>(&sim_, dumbbell ? "swL" : "sw0"));
  Switch* left = switches_.front().get();
  Switch* right = left;
  if (dumbbell) {
    switches_.push_back(std::make_unique<Switch>(&sim_, "swR"));
    right = switches_.back().get();
  }
  client_switch_idx_ = 0;
  server_switch_idx_ = switches_.size() - 1;

  const uint32_t left_domain = sharded_ ? switch_domains_.front() : 0;
  const uint32_t right_domain = sharded_ ? switch_domains_.back() : 0;
  for (int i = 0; i < config_.num_clients; ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    AttachHost(left, config_.client, "client", i, config_.num_clients, id, config_.client_port,
               &client_hosts_, &client_at_[i], sharded_ ? client_domains_[i] : 0, left_domain);
  }
  for (int i = 0; i < config_.num_servers; ++i) {
    const uint32_t id = static_cast<uint32_t>(config_.num_clients + i + 1);
    AttachHost(right, config_.server, "server", i, config_.num_servers, id, config_.server_port,
               &server_hosts_, &server_at_[i], sharded_ ? server_domains_[i] : 0, right_domain);
  }

  if (dumbbell) {
    // One trunk per direction; every cross-switch destination routes into
    // the local trunk port.
    Link* l2r = MakeLink(config_.trunk_link, DeriveSeed(seed, kFabricSeedTrunk, 0), "trunk.l2r");
    Link* r2l = MakeLink(config_.trunk_link, DeriveSeed(seed, kFabricSeedTrunk, 1), "trunk.r2l");
    l2r->SetSink(right);
    l2r->set_dst_domain(right_domain);
    r2l->SetSink(left);
    r2l->set_dst_domain(left_domain);
    const size_t left_trunk = left->AddPort(l2r, config_.trunk_port, "swL.trunk");
    const size_t right_trunk = right->AddPort(r2l, config_.trunk_port, "swR.trunk");
    for (int i = 0; i < config_.num_servers; ++i) {
      left->SetRoute(static_cast<uint32_t>(config_.num_clients + i + 1), left_trunk);
    }
    for (int i = 0; i < config_.num_clients; ++i) {
      right->SetRoute(static_cast<uint32_t>(i + 1), right_trunk);
    }
  }

  FinishAllRxPaths();
}

void FabricTopology::BuildLeafSpine() {
  const uint64_t seed = config_.seed;
  const int leaves = config_.num_leaves;
  const int spines = config_.num_spines;
  for (int l = 0; l < leaves; ++l) {
    switches_.push_back(std::make_unique<Switch>(&sim_, "leaf" + std::to_string(l)));
  }
  for (int s = 0; s < spines; ++s) {
    switches_.push_back(std::make_unique<Switch>(&sim_, "spine" + std::to_string(s)));
  }
  // client_switch()/server_switch() name the leaf of host 0 on each side
  // (both leaf 0 under round-robin placement, the pinned rack otherwise).
  client_switch_idx_ = static_cast<size_t>(client_leaf(0));
  server_switch_idx_ = static_cast<size_t>(server_leaf(0));
  const auto leaf_domain = [&](int l) { return sharded_ ? switch_domains_[l] : 0; };
  const auto spine_domain = [&](int s) { return sharded_ ? switch_domains_[leaves + s] : 0; };

  // Hosts round-robin over the racks; the leaf routes its local hosts
  // directly (AttachHost installs the route).
  for (int i = 0; i < config_.num_clients; ++i) {
    const uint32_t id = static_cast<uint32_t>(i + 1);
    const int l = client_leaf(i);
    AttachHost(switches_[l].get(), config_.client, "client", i, config_.num_clients, id,
               config_.client_port, &client_hosts_, &client_at_[i],
               sharded_ ? client_domains_[i] : 0, leaf_domain(l));
  }
  for (int i = 0; i < config_.num_servers; ++i) {
    const uint32_t id = static_cast<uint32_t>(config_.num_clients + i + 1);
    const int l = server_leaf(i);
    AttachHost(switches_[l].get(), config_.server, "server", i, config_.num_servers, id,
               config_.server_port, &server_hosts_, &server_at_[i],
               sharded_ ? server_domains_[i] : 0, leaf_domain(l));
  }

  // Full bipartite leaf<->spine mesh: one link per direction per pair. The
  // leaf side of each pair joins the leaf's ECMP uplink group — remote
  // destinations have no exact route on a leaf, so they rendezvous-hash
  // across the spines. The spine side gets an exact route to every host on
  // that leaf. Member keys are derived from the spine index alone
  // (kFabricSeedEcmp), so a spine hashes identically at every leaf and
  // adding a leaf or spine never re-keys existing members.
  for (int l = 0; l < leaves; ++l) {
    Switch* leaf = switches_[l].get();
    for (int s = 0; s < spines; ++s) {
      Switch* spine = switches_[leaves + s].get();
      const uint64_t pair_index = (static_cast<uint64_t>(l) << 16) | static_cast<uint64_t>(s);
      const std::string ls = std::to_string(l);
      const std::string ss = std::to_string(s);
      Link* up = MakeLink(config_.trunk_link, DeriveSeed(seed, kFabricSeedLeafSpineUp, pair_index),
                          "leaf" + ls + ".up" + ss);
      up->SetSink(spine);
      up->set_dst_domain(spine_domain(s));
      Link* down =
          MakeLink(config_.trunk_link, DeriveSeed(seed, kFabricSeedLeafSpineDown, pair_index),
                   "spine" + ss + ".down" + ls);
      down->SetSink(leaf);
      down->set_dst_domain(leaf_domain(l));
      const size_t up_port =
          leaf->AddPort(up, config_.trunk_port, "leaf" + ls + ".up" + ss);
      leaf->AddEcmpMember(up_port, DeriveSeed(seed, kFabricSeedEcmp, s));
      const size_t down_port =
          spine->AddPort(down, config_.trunk_port, "spine" + ss + ".down" + ls);
      for (int i = 0; i < config_.num_clients; ++i) {
        if (client_leaf(i) == l) {
          spine->SetRoute(static_cast<uint32_t>(i + 1), down_port);
        }
      }
      for (int i = 0; i < config_.num_servers; ++i) {
        if (server_leaf(i) == l) {
          spine->SetRoute(static_cast<uint32_t>(config_.num_clients + i + 1), down_port);
        }
      }
    }
  }

  FinishAllRxPaths();
}

Link& FabricTopology::client_uplink(int ci) { return *client_at_.at(ci).uplink; }
Link& FabricTopology::server_uplink(int si) { return *server_at_.at(si).uplink; }

const ImpairmentChain* FabricTopology::c2s_impairment(int si) const {
  return server_at_.at(si).rx_impair.get();
}

const ImpairmentChain* FabricTopology::s2c_impairment(int ci) const {
  return client_at_.at(ci).rx_impair.get();
}

std::vector<SwitchPort*> FabricTopology::BottleneckPorts() {
  std::vector<SwitchPort*> ports;
  if (switches_.empty()) {
    return ports;
  }
  Switch& client_sw = *client_switch();
  for (size_t p = 0; p < client_sw.num_ports(); ++p) {
    const std::string& name = client_sw.port(p).name();
    if (IsLeafSpine() ? name.find(".up") != std::string::npos
                      : name.find("trunk") != std::string::npos) {
      ports.push_back(&client_sw.port(p));
    }
  }
  if (ports.empty()) {
    ports.push_back(server_switch()->RouteFor(server_host(0).id()));
  }
  return ports;
}

uint64_t FabricTopology::total_switch_drops() const {
  uint64_t total = 0;
  for (const auto& sw : switches_) {
    for (size_t p = 0; p < sw->num_ports(); ++p) {
      total += sw->port(p).counters().tail_drops;
    }
  }
  return total;
}

uint64_t FabricTopology::total_ecn_marked() const {
  uint64_t total = 0;
  for (const auto& sw : switches_) {
    for (size_t p = 0; p < sw->num_ports(); ++p) {
      total += sw->port(p).counters().ecn_marked;
    }
  }
  return total;
}

uint64_t FabricTopology::total_forwarding_misses() const {
  uint64_t total = 0;
  for (const auto& sw : switches_) {
    total += sw->forwarding_misses();
  }
  return total;
}

void FabricTopology::ExportCounters(CounterRegistry* registry) const {
  assert(registry != nullptr);
  const auto register_host = [&](const Host* host) {
    const Nic* nic = &const_cast<Host*>(host)->nic();
    registry->Register(host->name() + ".nic",
                       {"rx_packets", "rx_checksum_drops", "tx_segments", "tx_wire_packets",
                        "polls", "irqs"},
                       [nic]() -> std::vector<uint64_t> {
                         return {nic->rx_packets(), nic->rx_checksum_drops(), nic->tx_segments(),
                                 nic->tx_wire_packets(), nic->polls(), nic->irqs()};
                       });
  };
  for (const auto& host : client_hosts_) {
    register_host(host.get());
  }
  for (const auto& host : server_hosts_) {
    register_host(host.get());
  }
  for (const auto& link : links_) {
    const Link* raw = link.get();
    registry->Register(raw->name() + ".link", {"packets_sent", "packets_dropped", "bytes_sent"},
                       [raw]() -> std::vector<uint64_t> {
                         return {raw->packets_sent(), raw->packets_dropped(), raw->bytes_sent()};
                       });
  }
  for (const auto& sw : switches_) {
    for (size_t p = 0; p < sw->num_ports(); ++p) {
      const SwitchPort* port = &sw->port(p);
      // dropped_bytes and ecn_marked_bytes are disjoint by construction
      // (a packet is either dropped or admitted-and-possibly-marked), so a
      // window delta can attribute every congested byte to exactly one
      // fate even when both happen within the same epoch.
      registry->Register(port->name() + ".port",
                         {"packets_in", "packets_out", "bytes_out", "tail_drops",
                          "byte_limit_drops", "packet_limit_drops", "dropped_bytes",
                          "ecn_marked", "ecn_marked_bytes", "max_queue_bytes",
                          "max_queue_packets"},
                         [port]() -> std::vector<uint64_t> {
                           const SwitchPort::Counters& c = port->counters();
                           return {c.packets_in, c.packets_out, c.bytes_out, c.tail_drops,
                                   c.byte_limit_drops, c.packet_limit_drops, c.dropped_bytes,
                                   c.ecn_marked, c.ecn_marked_bytes, c.max_queue_bytes,
                                   c.max_queue_packets};
                         });
    }
    const Switch* raw = sw.get();
    registry->Register(raw->name() + ".switch", {"forwarding_misses"},
                       [raw]() -> std::vector<uint64_t> { return {raw->forwarding_misses()}; });
  }
}

void FabricTopology::ExportQueueGauges(TimeSeriesSampler* sampler) const {
  assert(sampler != nullptr);
  for (const auto& sw : switches_) {
    for (size_t p = 0; p < sw->num_ports(); ++p) {
      const SwitchPort* port = &sw->port(p);
      sampler->AddGauge(port->name() + ".queue_bytes",
                        [port] { return static_cast<double>(port->queue_bytes()); });
      sampler->AddGauge(port->name() + ".queue_packets",
                        [port] { return static_cast<double>(port->queue_packets()); });
      sampler->AddGauge(port->name() + ".ecn_marked",
                        [port] { return static_cast<double>(port->counters().ecn_marked); });
      sampler->AddGauge(port->name() + ".ecn_marked_bytes", [port] {
        return static_cast<double>(port->counters().ecn_marked_bytes);
      });
      sampler->AddGauge(port->name() + ".tail_drops",
                        [port] { return static_cast<double>(port->counters().tail_drops); });
      sampler->AddGauge(port->name() + ".dropped_bytes", [port] {
        return static_cast<double>(port->counters().dropped_bytes);
      });
    }
  }
}

}  // namespace e2e
