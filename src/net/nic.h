// Simulated NIC: TX ring with completions, TSO slicing, and NAPI-style RX.
//
// TX: the stack enqueues (super-)segments; each is serialized onto the link
// (TSO super-segments slice into MTU packets on the wire) and a TX
// completion fires when the last bit leaves. Completions are processed in
// the softirq poll loop and reported to the stack — this is what Linux's
// auto-corking keys off ("buffer bytes until previous packets are freed from
// the NIC's transmit ring after a completion interrupt").
//
// RX: arriving packets join a backlog drained by a NAPI-like poll running on
// the host's softirq core. Entering the poll from idle pays an interrupt
// overhead; while the backlog stays non-empty, polling continues at a lower
// per-iteration cost, so bursts amortize interrupt work exactly as NAPI
// does. Per-packet stack processing cost is supplied by the TCP layer.

#ifndef SRC_NET_NIC_H_
#define SRC_NET_NIC_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/net/link.h"
#include "src/net/packet.h"
#include "src/sim/cpu.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"

namespace e2e {

class Nic : public PacketSink {
 public:
  struct Config {
    size_t tx_ring_size = 1024;       // Max in-flight (uncompleted) TX segments.
    int napi_budget = 64;             // Max packets per poll iteration.
    Duration irq_overhead = Duration::MicrosF(1.0);    // Idle -> poll entry.
    Duration poll_continue_cost = Duration::Nanos(150);  // Subsequent iterations.
    Duration tx_completion_cost = Duration::Nanos(200);  // Per completed TX segment.
  };

  // Cost of stack processing for one poll batch (charged to softirq). The
  // batch form lets the stack price GRO-style coalescing: contiguous
  // same-flow packets in one poll cost one stack traversal.
  using RxBatchCostFn = std::function<Duration(const std::vector<Packet>&)>;
  // Invoked (from softirq context) for each received packet.
  using RxHandler = std::function<void(const Packet&)>;
  // Invoked (from softirq context) after `n` TX segments completed.
  using TxCompleteHandler = std::function<void(size_t n)>;

  Nic(Simulator* sim, CpuCore* softirq, Link* tx_link, const Config& config, std::string name);

  void SetRx(RxBatchCostFn cost_fn, RxHandler handler);
  void SetTxCompleteHandler(TxCompleteHandler handler) { tx_complete_ = std::move(handler); }

  // Enqueues a (super-)segment for transmission. Returns false when the TX
  // ring is full (callers should treat this as backpressure).
  bool Transmit(Packet packet);

  // Super-segments handed to the NIC whose TX completion has not fired yet.
  size_t tx_in_flight() const { return tx_in_flight_; }

  // PacketSink: the RX side of this NIC (sink of the incoming link).
  void DeliverPacket(Packet packet) override;

  uint64_t rx_packets() const { return rx_packets_; }
  // Arrivals discarded by hardware checksum validation (corrupted on the
  // wire by an impairment stage); they never reach the softirq backlog.
  uint64_t rx_checksum_drops() const { return rx_checksum_drops_; }
  uint64_t tx_segments() const { return tx_segments_; }
  uint64_t tx_wire_packets() const { return tx_wire_packets_; }
  uint64_t polls() const { return polls_; }
  uint64_t irqs() const { return irqs_; }
  const std::string& name() const { return name_; }

 private:
  void SchedulePoll();

  Simulator* sim_;
  CpuCore* softirq_;
  Link* tx_link_;
  Config config_;
  std::string name_;

  RxBatchCostFn rx_cost_;
  RxHandler rx_handler_;
  TxCompleteHandler tx_complete_;

  Ring<Packet> rx_backlog_;
  size_t tx_done_backlog_ = 0;
  size_t tx_in_flight_ = 0;
  bool poll_scheduled_ = false;
  bool in_poll_chain_ = false;

  // Per-poll scratch, captured at poll start and consumed at poll end.
  std::vector<Packet> poll_batch_;
  size_t poll_tx_done_ = 0;

  uint64_t rx_packets_ = 0;
  uint64_t rx_checksum_drops_ = 0;
  uint64_t tx_segments_ = 0;
  uint64_t tx_wire_packets_ = 0;
  uint64_t polls_ = 0;
  uint64_t irqs_ = 0;
};

}  // namespace e2e

#endif  // SRC_NET_NIC_H_
