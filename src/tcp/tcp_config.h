// Configuration for TCP endpoints and the CPU cost model of the stack.

#ifndef SRC_TCP_TCP_CONFIG_H_
#define SRC_TCP_TCP_CONFIG_H_

#include <cstdint>
#include <optional>

#include "src/core/units.h"
#include "src/sim/time.h"
#include "src/tcp/cc/congestion_control.h"
#include "src/tcp/rtt.h"

namespace e2e {

// TCP option / loss-recovery feature selection. Everything defaults off so
// the baseline stack (cumulative-ack NewReno + RTO rewind) is unchanged;
// drivers opt in per-cell. `rack` requires `sack` (the scoreboard supplies
// the per-segment delivery state RACK reasons over); `timestamps` is
// independent but recommended with RACK (Karn-safe RTT under retransmits).
struct TcpFeatureConfig {
  // RFC 7323 timestamps: TSval/TSecr on every segment (subject to the
  // option-space arbiter), giving one Karn-safe RTT sample per ack.
  bool timestamps = false;
  // RFC 2018 SACK generation (receiver) + RFC 6675 scoreboard (sender):
  // holes are retransmitted individually; an RTO marks outstanding data
  // lost and repairs it hole-by-hole instead of rewinding the send pointer.
  bool sack = false;
  // RACK-style time-based loss marking (RFC 8985, simplified): a segment is
  // lost once a segment sent sufficiently later was delivered, replacing
  // the dup-ack==3 heuristic. Implies a tail-loss probe (TLP) so a lost
  // tail is probed after ~2*SRTT instead of waiting out a backed-off RTO.
  bool rack = false;
};

// Dead-peer detection: idle keepalives with an R2-style give-up threshold
// (RFC 1122 §4.2.3.6). Defaults are sim-scale, not the kernel's 2 hours.
struct KeepaliveConfig {
  bool enabled = false;
  // Probe when nothing has arrived from the peer for this long.
  Duration idle = Duration::Millis(500);
  // Spacing of successive unanswered probes.
  Duration interval = Duration::Millis(100);
  // Unanswered probes before the peer is declared dead (R2).
  int probes = 5;
};

struct TcpConfig {
  uint32_t mss = 1448;  // 1500 MTU minus IP/TCP headers + timestamps.
  uint64_t sndbuf_bytes = 4 * 1024 * 1024;
  uint64_t rcvbuf_bytes = 4 * 1024 * 1024;

  // Nagle's algorithm: small segments are held while unacked data is in
  // flight. `nodelay` (TCP_NODELAY) disables it; see also
  // TcpEndpoint::SetCorkLimit for the AIMD-adjustable generalization.
  bool nodelay = false;
  // Safety valve: a held small segment is force-pushed after this delay
  // (the paper quotes 200 ms for Nagle's worst case).
  Duration nagle_timeout = Duration::Millis(200);

  // Auto-corking: even with nodelay, hold small segments while this
  // endpoint has uncompleted TX descriptors in the NIC ring; flush on the
  // TX-completion interrupt.
  bool autocork = false;

  // Delayed acks (RFC 1122): a pure ack is sent once `delack_segments` MSS
  // of unacked data accumulate, or when the timer expires, or piggybacked
  // on any outbound data.
  Duration delack_timeout = Duration::Millis(40);
  uint32_t delack_segments = 2;

  // TSO: hand super-segments of up to `tso_max_bytes` to the NIC, paying
  // the stack TX cost once; the NIC slices them to MSS on the wire.
  bool tso = true;
  uint32_t tso_max_bytes = 65536;

  RttEstimator::Config rtt;

  // Option / recovery features (timestamps, SACK, RACK+TLP) and dead-peer
  // keepalives; see the structs above. All off by default.
  TcpFeatureConfig features;
  KeepaliveConfig keepalive;

  // Zero-window persist probes back off exponentially from the current RTO
  // (doubling per unanswered probe) up to this cap; forward progress or a
  // reopened window resets the backoff. RFC 1122 wants the interval bounded
  // by 60 s; the sim default is tighter so tests stay fast.
  Duration persist_max_interval = Duration::Seconds(1);

  // Retransmission give-up (R2, RFC 1122 §4.2.3.5): after this many
  // consecutive RTO firings with no forward progress the peer is declared
  // dead (DeadPeerFn). 0 disables (the seed behavior: retry forever).
  int rto_give_up = 0;

  // Congestion control (the `mss` field is overridden with this config's
  // mss when the endpoint is constructed). `cc.algorithm` selects
  // Reno/CUBIC/DCTCP; `cc.ecn` turns on CE echo + CWR signalling.
  CcConfig cc;

  // End-to-end metadata exchange (paper §3.2/§5): attach the wire payload to
  // the first outbound segment after this interval elapses, with a pure-ack
  // fallback when no segment carries it. This is the cadence while either
  // side's queues change; once a whole interval passes with nothing new on
  // either side the exchange parks until the next change (DESIGN.md §6).
  // Zero disables the exchange.
  Duration e2e_exchange_interval = Duration::Millis(1);
  UnitMode e2e_mode = UnitMode::kBytes;
};

// CPU costs of stack operations, charged to the executing core. These are
// the calibration knobs standing in for the paper's Xeon testbed (see
// DESIGN.md §5); defaults approximate a modern server.
struct StackCosts {
  // Softirq RX. With GRO enabled (the default, as on the paper's testbed),
  // contiguous in-order packets of one flow arriving in the same NAPI poll
  // are coalesced: every wire packet pays the driver cost, but the full
  // stack traversal (`rx_per_packet`) is paid once per coalesced group.
  bool gro = true;
  uint32_t gro_max_bytes = 65536;
  Duration driver_rx_per_packet = Duration::Nanos(150);
  Duration rx_per_packet = Duration::Nanos(600);
  Duration rx_per_byte = Duration::Nanos(0);  // Often folded into app copy.

  // TX path (tcp_write_xmit + qdisc + driver), per (super-)segment handed to
  // the NIC and per payload byte, charged to the context that pushes.
  Duration tx_per_segment = Duration::Nanos(600);
  Duration tx_per_byte = Duration::Nanos(0);

  // Ringing the NIC doorbell, once per push that transmitted anything.
  Duration doorbell = Duration::Nanos(300);

  // Building/sending a pure ack.
  Duration pure_ack_tx = Duration::Nanos(400);
};

}  // namespace e2e

#endif  // SRC_TCP_TCP_CONFIG_H_
