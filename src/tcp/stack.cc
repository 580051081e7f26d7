#include "src/tcp/stack.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/tcp/segment.h"

namespace e2e {

TcpStack::TcpStack(Simulator* sim, Host* host, const StackCosts& costs)
    : sim_(sim), host_(host), costs_(costs) {
  assert(sim_ != nullptr && host_ != nullptr);
  host_->nic().SetRx([this](const std::vector<Packet>& batch) { return RxBatchCost(batch); },
                     [this](const Packet& packet) { OnRxPacket(packet); });
  host_->nic().SetTxCompleteHandler([this](size_t n) {
    for (TcpEndpoint* endpoint : autocork_) {
      endpoint->OnTxCompletions(n);
    }
  });
}

TcpEndpoint* TcpStack::CreateEndpoint(uint64_t conn_id, bool is_a, const TcpConfig& config) {
  // The endpoint ctor arms timers (exchange, keepalive); on a sharded run
  // those must land in the host's own shard queue, not the global one.
  DomainScope in_host_domain(sim_, host_->domain());
  auto endpoint = std::make_unique<TcpEndpoint>(sim_, host_, conn_id, is_a, config, &costs_);
  TcpEndpoint* raw = owned_.emplace_back(std::move(endpoint)).get();
  const uint64_t key = KeyFor(conn_id, is_a);
  assert(endpoints_.find(key) == endpoints_.end());
  endpoints_.emplace(key, raw);
  if (config.autocork) {
    autocork_.push_back(raw);
  }
  return raw;
}

void TcpStack::CloseEndpoint(uint64_t conn_id, bool is_a) {
  auto it = endpoints_.find(KeyFor(conn_id, is_a));
  if (it == endpoints_.end()) {
    return;
  }
  // owned_ keeps the zombie until the stack dies.
  it->second->Shutdown();
  endpoints_.erase(it);
}

Duration TcpStack::RxBatchCost(const std::vector<Packet>& batch) {
  Duration cost;
  const TcpSegment* prev = nullptr;
  uint64_t group_bytes = 0;
  for (const Packet& packet : batch) {
    const size_t payload =
        packet.wire_bytes > kWireHeaderBytes ? packet.wire_bytes - kWireHeaderBytes : 0;
    cost += costs_.rx_per_byte * static_cast<int64_t>(payload);
    const auto* seg = dynamic_cast<const TcpSegment*>(packet.payload.get());
    if (!costs_.gro) {
      cost += costs_.rx_per_packet;
      continue;
    }
    cost += costs_.driver_rx_per_packet;
    const bool mergeable = seg != nullptr && prev != nullptr && seg->len > 0 && prev->len > 0 &&
                           seg->conn_id == prev->conn_id && seg->from_a == prev->from_a &&
                           seg->seq == prev->seq + prev->len &&
                           group_bytes + seg->len <= costs_.gro_max_bytes;
    if (mergeable) {
      ++gro_merged_;
    } else {
      cost += costs_.rx_per_packet;  // New coalesced group: one stack pass.
      group_bytes = 0;
    }
    group_bytes += seg != nullptr ? seg->len : 0;
    prev = seg;
  }
  return cost;
}

void TcpStack::OnRxPacket(const Packet& packet) {
  const auto* seg = dynamic_cast<const TcpSegment*>(packet.payload.get());
  if (seg == nullptr) {
    ++unknown_segments_;
    return;
  }
  // The receiving endpoint is the side *opposite* the sender.
  auto it = endpoints_.find(KeyFor(seg->conn_id, !seg->from_a));
  if (it == endpoints_.end()) {
    ++unknown_segments_;
    return;
  }
  it->second->HandleSegment(*seg, packet.ecn_ce);
}

ConnectedPair ConnectPair(TcpStack& stack_a, TcpStack& stack_b, uint64_t conn_id,
                          const TcpConfig& config_a, const TcpConfig& config_b) {
  ConnectedPair pair;
  pair.a = stack_a.CreateEndpoint(conn_id, /*is_a=*/true, config_a);
  pair.b = stack_b.CreateEndpoint(conn_id, /*is_a=*/false, config_b);
  pair.a->InitPeerWindow(config_b.rcvbuf_bytes);
  pair.b->InitPeerWindow(config_a.rcvbuf_bytes);
  pair.a->SetPeerHost(stack_b.host()->id());
  pair.b->SetPeerHost(stack_a.host()->id());
  pair.a->SetLocalHost(stack_a.host()->id());
  pair.b->SetLocalHost(stack_b.host()->id());
  return pair;
}

}  // namespace e2e
