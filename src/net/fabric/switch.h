// An output-queued switch: the shared data plane of multi-host topologies.
//
// Model: packets arrive from any ingress link (the switch is a single
// `PacketSink`; ingress ports need no state of their own), are looked up in
// a forwarding table keyed by `Packet::dst_host`, and join the matched
// output port's FIFO buffer. Each port drains in order onto its egress
// `Link` — one packet serializes at a time, so the port's queue is the real
// buffer and the link's internal serialization queue never grows.
//
// A packet occupies its buffer slot from acceptance until its last bit is
// on the wire (like a TX descriptor), so occupancy counts the packet in
// service. Admission is drop-tail against the configured byte and/or packet
// capacity; an accepted packet whose arrival pushes occupancy past the ECN
// threshold is marked CE (`Packet::ecn_ce`). When an endpoint runs with
// `cc.ecn` enabled the mark is echoed back as ECE and drives the sender's
// congestion controller (src/tcp/cc/); otherwise only the counters see it.
//
// Multi-path: a switch may carry one ECMP group — an ordered list of
// (port, member key) entries — consulted when the forwarding table has no
// exact entry for the destination. Selection is highest-random-weight
// (rendezvous) hashing: the member whose keyed SplitMix64 hash of the flow
// key (src_host, dst_host) scores highest wins. That gives per-flow path
// pinning (every packet of a flow takes one port, so a single-path flow can
// never reorder inside the fabric) and minimal disruption (adding a member
// only moves the flows that now score highest on the new member — existing
// streams keep their paths). Leaf switches in a leaf-spine fabric use this
// for their uplinks; see src/testbed/fabric_topology.*.
//
// Forwarding-table misses (no exact route and no ECMP group) are counted
// and dropped (there is no flooding: every simulated host is registered by
// the topology builder, so a miss is a wiring bug or an unaddressed
// packet).
//
// Determinism: the switch does no random draws — ECMP hashing is a pure
// function of the flow key and the configured member keys; all deferred
// work goes through the simulator event queue, and the forwarding table is
// only ever point-queried (no iteration), so runs replay byte-identically.

#ifndef SRC_NET_FABRIC_SWITCH_H_
#define SRC_NET_FABRIC_SWITCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"

namespace e2e {

struct SwitchPortConfig {
  // Output-buffer capacity. 0 disables the respective limit; both set means
  // a packet is tail-dropped when it would exceed either.
  size_t buffer_bytes = 512 * 1024;
  size_t buffer_packets = 0;
  // Mark accepted packets CE while occupancy (bytes, including the arrival)
  // exceeds this threshold. 0 disables marking.
  size_t ecn_threshold_bytes = 0;
};

class SwitchPort;

// One admission decision, as seen by a passive observer on the switch.
struct SwitchTapEvent {
  // The matched egress port; nullptr when the forwarding lookup missed.
  const SwitchPort* port = nullptr;
  bool dropped = false;  // Tail-dropped (or forwarding miss) — never queued.
  bool marked = false;   // Admitted and CE-marked on this admission.
};

// Passive observer attached to a switch: sees every packet offered to the
// data plane, after the admission/marking decision, with the packet exactly
// as it will be queued (CE already applied). Implementations must not
// mutate simulation state or schedule events — the contract is that an
// attached tap leaves every simulated byte identical to an untapped run.
class SwitchTap {
 public:
  virtual ~SwitchTap() = default;
  virtual void OnSwitchPacket(const Packet& packet, const SwitchTapEvent& event) = 0;
};

// One output port: a drop-tail FIFO draining onto an egress link.
class SwitchPort {
 public:
  struct Counters {
    uint64_t packets_in = 0;       // Offered to the port (pre-admission).
    uint64_t packets_out = 0;      // Handed to the egress link.
    uint64_t bytes_out = 0;
    uint64_t tail_drops = 0;       // Total admission failures.
    uint64_t byte_limit_drops = 0;
    uint64_t packet_limit_drops = 0;
    uint64_t dropped_bytes = 0;    // Wire bytes of tail-dropped packets.
    uint64_t ecn_marked = 0;
    // Wire bytes of packets that were admitted *and* CE-marked. Disjoint
    // from dropped_bytes by construction (a dropped packet is never
    // marked), so a mark burst during tail-drop attributes unambiguously.
    uint64_t ecn_marked_bytes = 0;
    uint64_t max_queue_bytes = 0;  // High-water occupancy.
    uint64_t max_queue_packets = 0;
  };

  SwitchPort(Simulator* sim, Link* egress, const SwitchPortConfig& config, std::string name);

  void Enqueue(Packet packet);

  // Installed by the owning Switch; nullptr disables observation.
  void SetTap(SwitchTap* tap) { tap_ = tap; }

  // Current occupancy, including the packet being serialized.
  size_t queue_bytes() const { return queue_bytes_; }
  size_t queue_packets() const { return queue_packets_; }

  const Counters& counters() const { return counters_; }
  const SwitchPortConfig& config() const { return config_; }
  Link* egress() { return egress_; }
  const std::string& name() const { return name_; }

 private:
  void MaybeStartService();

  Simulator* sim_;
  Link* egress_;
  SwitchPortConfig config_;
  std::string name_;
  Ring<Packet> queue_;        // Excludes the packet in service.
  size_t queue_bytes_ = 0;    // Includes the packet in service.
  size_t queue_packets_ = 0;  // Includes the packet in service.
  bool serving_ = false;
  SwitchTap* tap_ = nullptr;
  Counters counters_;
};

class Switch : public PacketSink {
 public:
  Switch(Simulator* sim, std::string name);

  // Adds an output port draining onto `egress` (not owned; must outlive the
  // switch). Returns the port index used by SetRoute.
  size_t AddPort(Link* egress, const SwitchPortConfig& config, std::string name);

  // Routes packets addressed to `dst_host` out of port `port`.
  void SetRoute(uint32_t dst_host, size_t port);

  // Adds `port` to the switch's ECMP group with the given member key (a
  // keyed-hash seed, typically DeriveSeed(topology seed, ecmp domain, member
  // index) so it is stable across construction order). Packets with no
  // exact route are forwarded out of the member that wins rendezvous
  // hashing on the packet's (src_host, dst_host) flow key.
  void AddEcmpMember(size_t port, uint64_t member_key);

  // The ECMP member `flow (src_host, dst_host)` pins to, or nullptr when
  // the group is empty. Pure function of the flow key and member keys.
  SwitchPort* EcmpRouteFor(uint32_t src_host, uint32_t dst_host);

  size_t ecmp_group_size() const { return ecmp_members_.size(); }

  // Packets forwarded via the ECMP group (route-table misses that hashed to
  // a member instead of dropping).
  uint64_t ecmp_forwards() const { return ecmp_forwards_; }

  // PacketSink: ingress from any attached link.
  void DeliverPacket(Packet packet) override;

  size_t num_ports() const { return ports_.size(); }
  SwitchPort& port(size_t i) { return *ports_[i]; }
  const SwitchPort& port(size_t i) const { return *ports_[i]; }
  // The port currently routing `dst_host`, or nullptr on a miss.
  SwitchPort* RouteFor(uint32_t dst_host);

  uint64_t forwarding_misses() const { return forwarding_misses_; }
  const std::string& name() const { return name_; }

  // Attaches a passive observer to every current and future port (and to
  // forwarding misses). One tap per switch; nullptr detaches.
  void SetTap(SwitchTap* tap);
  SwitchTap* tap() { return tap_; }

 private:
  struct EcmpMember {
    size_t port;
    uint64_t key;
  };

  Simulator* sim_;
  std::string name_;
  std::vector<std::unique_ptr<SwitchPort>> ports_;
  std::unordered_map<uint32_t, size_t> routes_;  // Point-queried only.
  std::vector<EcmpMember> ecmp_members_;
  uint64_t forwarding_misses_ = 0;
  uint64_t ecmp_forwards_ = 0;
  SwitchTap* tap_ = nullptr;
};

}  // namespace e2e

#endif  // SRC_NET_FABRIC_SWITCH_H_
