// Per-host TCP stack: owns the host's endpoints, installs the NIC RX/TX
// callbacks, prices per-packet softirq processing, and demultiplexes
// incoming segments to their endpoint.

#ifndef SRC_TCP_STACK_H_
#define SRC_TCP_STACK_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/net/host.h"
#include "src/sim/simulator.h"
#include "src/tcp/endpoint.h"
#include "src/tcp/tcp_config.h"

namespace e2e {

class TcpStack {
 public:
  TcpStack(Simulator* sim, Host* host, const StackCosts& costs);

  // Creates an endpoint for `conn_id`. `is_a` distinguishes the two sides
  // of a connection; see ConnectPair. The stack owns the endpoint: its
  // address is stable and it is destroyed with the stack.
  TcpEndpoint* CreateEndpoint(uint64_t conn_id, bool is_a, const TcpConfig& config);

  // Tears down one endpoint (process crash / close): Shutdown()s it and
  // removes it from segment demux — late segments count as
  // unknown_segments, the RST-less drop a dead port gives. The stack keeps
  // the zombie alive because already-queued CPU work items and in-flight
  // packets may still reference it; see TcpEndpoint::Shutdown(). Frees the
  // (conn_id, is_a) key for a replacement incarnation. No-op when absent.
  void CloseEndpoint(uint64_t conn_id, bool is_a);

  uint64_t endpoints_closed() const { return owned_.size() - endpoints_.size(); }

  Host* host() { return host_; }
  const StackCosts& costs() const { return costs_; }

  uint64_t unknown_segments() const { return unknown_segments_; }
  // Wire packets whose stack traversal was saved by GRO coalescing.
  uint64_t gro_merged() const { return gro_merged_; }

 private:
  uint64_t KeyFor(uint64_t conn_id, bool is_a) const { return conn_id * 2 + (is_a ? 1 : 0); }
  Duration RxBatchCost(const std::vector<Packet>& batch);
  void OnRxPacket(const Packet& packet);

  Simulator* sim_;
  Host* host_;
  StackCosts costs_;
  // Every endpoint this stack ever created, open or closed, in creation
  // order. The demux map tracks only the open ones.
  std::vector<std::unique_ptr<TcpEndpoint>> owned_;
  std::unordered_map<uint64_t, TcpEndpoint*> endpoints_;
  // The endpoints created with config.autocork, in creation order. Only
  // they can hold data for a TX completion, so completions fan out to them
  // alone; closed ones stay listed and ignore the call.
  std::vector<TcpEndpoint*> autocork_;
  uint64_t unknown_segments_ = 0;
  uint64_t gro_merged_ = 0;
};

// Creates the two endpoints of a connection between hosts running `stack_a`
// and `stack_b` (whose NICs must already be linked) and seeds each side's
// view of the peer's receive window.
struct ConnectedPair {
  TcpEndpoint* a = nullptr;
  TcpEndpoint* b = nullptr;
};
ConnectedPair ConnectPair(TcpStack& stack_a, TcpStack& stack_b, uint64_t conn_id,
                          const TcpConfig& config_a, const TcpConfig& config_b);

}  // namespace e2e

#endif  // SRC_TCP_STACK_H_
