// One endpoint of a simulated TCP connection.
//
// Implements the transmit/receive machinery the paper's batching heuristics
// live in: send/receive socket buffers, Nagle with a generalized cork limit,
// auto-corking keyed off NIC TX completions, delayed acks with piggybacking,
// flow control (advertised windows), TSO super-segments, retransmission
// timers with out-of-order reassembly — plus the instrumentation of the three
// monitored queues (unacked / unread / ackdelay) in every kernel unit mode,
// and the end-to-end metadata exchange, sent on change (periodic while
// either side's queues move, parked while both are quiet).
//
// Which segments are lost and what to retransmit is decided by the
// LossRecovery policy TcpConfig::features selects (src/tcp/loss_recovery.h:
// NewReno, SACK or RACK-TLP), as the window is by the congestion-control
// algorithm (src/tcp/cc). The endpoint keeps the timers, the CPU work and
// the packet builders, and acts on what the policy answers.
//
// Threading model: application-side calls (Send/Recv/SetNoDelay/...) must be
// made from work running on the host's app core; segment handling runs on
// the softirq core (driven by the NIC poll via TcpStack). CPU costs of the
// TX path are charged to whichever core triggered the transmission, as in
// Linux.

#ifndef SRC_TCP_ENDPOINT_H_
#define SRC_TCP_ENDPOINT_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/core/endpoint_queues.h"
#include "src/core/estimator.h"
#include "src/core/hints.h"
#include "src/net/host.h"
#include "src/obs/trace.h"
#include "src/sim/ring.h"
#include "src/sim/simulator.h"
#include "src/tcp/byte_stream.h"
#include "src/tcp/loss_recovery.h"
#include "src/tcp/rtt.h"
#include "src/tcp/segment.h"
#include "src/tcp/tcp_config.h"

namespace e2e {

class TcpEndpoint {
 public:
  using ReadableFn = std::function<void()>;
  using WritableFn = std::function<void()>;
  using EstimateFn = std::function<void(const ConnectionEstimator&)>;
  // Invoked once when this endpoint gives up on the peer: either the
  // keepalive probe budget (R2) ran out on an idle connection, or
  // `rto_give_up` consecutive timeouts made no forward progress. `reason`
  // is "keepalive" or "rto". The endpoint itself keeps running (the
  // application decides whether to close), but the signal is what lets
  // Lancet distinguish "slow" from "gone".
  using DeadPeerFn = std::function<void(const char* reason)>;
  // Fault hook on the metadata receive path: maps one arriving peer payload
  // to the payloads actually delivered to the estimator — {} withholds it,
  // {p} passes it through, {p, p} duplicates, {stale} replays an old one.
  using MetadataFilterFn = std::function<std::vector<WirePayload>(const WirePayload&)>;

  TcpEndpoint(Simulator* sim, Host* host, uint64_t conn_id, bool is_a, const TcpConfig& config,
              const StackCosts* costs);

  // ---- Application-side API (call from app-core work) ----

  // Queues `len` bytes ending one application message. Returns false when
  // the send buffer lacks space (retry from the writable callback). Charges
  // the TCP TX path to the app core.
  bool Send(uint64_t len, MessageRecord record);

  // As Send, but also passes the application's hint queue state through the
  // ancillary-data channel (paper §3.3). The tracker must outlive the
  // endpoint or be cleared with SetHintTracker(nullptr).
  bool SendWithHints(uint64_t len, MessageRecord record, HintTracker* hints);

  // Several application messages issued through ONE send() syscall (e.g. a
  // pipelining client coalescing requests — §3.3's "system calls do not
  // always correspond to application messages"). All messages are queued
  // atomically (false if they don't fit together) but count as a single
  // syscall unit in the instrumentation.
  struct BatchItem {
    uint64_t len = 0;
    MessageRecord record;
  };
  bool SendBatch(std::vector<BatchItem> items);

  struct RecvResult {
    uint64_t bytes = 0;
    std::vector<MessageRecord> messages;  // Completed message records, in order.
  };
  // Reads up to `max_bytes` from the receive queue (window updates are sent
  // from the app core when the window reopens meaningfully).
  RecvResult Recv(uint64_t max_bytes = UINT64_MAX);

  uint64_t ReadableBytes() const { return rcvq_.size_bytes(); }
  size_t ReadableMessages() const { return rcvq_.boundary_count(); }
  uint64_t SendBufferAvailable() const;

  // TCP_NODELAY: disables (true) / enables (false) Nagle. Enabling nodelay
  // immediately pushes held data.
  void SetNoDelay(bool nodelay);
  bool nodelay() const { return config_.nodelay; }

  // Generalized Nagle (AIMD extension, paper §5): hold a sub-MSS tail while
  // data is in flight only if fewer than `bytes` are pending. nullopt
  // restores classic behavior (hold any sub-MSS tail, i.e. limit = MSS);
  // 0 behaves like nodelay.
  void SetCorkLimit(std::optional<uint32_t> bytes);

  void SetHintTracker(HintTracker* hints) { hint_tracker_ = hints; }

  // On-demand metadata exchange (paper §5: "instead of using some fixed
  // exchange interval, we can do it on-demand"): the next outbound segment
  // carries this endpoint's counters; if nothing goes out within a short
  // grace window (100 µs), a pure ack is sent. Works even when the
  // periodic exchange is disabled.
  void RequestExchange();

  void SetReadableCallback(ReadableFn fn) { readable_cb_ = std::move(fn); }
  void SetWritableCallback(WritableFn fn) { writable_cb_ = std::move(fn); }
  // Invoked (softirq context) whenever a metadata exchange refreshes the
  // estimate; wiring point for dynamic batching controllers.
  void SetEstimateCallback(EstimateFn fn) { estimate_cb_ = std::move(fn); }
  // Installs/clears (nullptr) the metadata fault filter (testbed/faults).
  void SetMetadataFilter(MetadataFilterFn fn) { metadata_filter_ = std::move(fn); }
  // Dead-peer declaration hook (keepalive R2 / rto_give_up; see DeadPeerFn).
  void SetDeadPeerCallback(DeadPeerFn fn) { dead_peer_cb_ = std::move(fn); }

  // Kills this endpoint: cancels every timer, drops callbacks, and turns
  // all entry points into no-ops. Models the socket side of a process
  // crash / close. The object intentionally stays allocated (a zombie):
  // CPU-core work items and in-flight packets may still hold `this`, so
  // destruction is unsafe until the simulation ends — TcpStack keeps
  // ownership and merely removes the demux entry.
  void Shutdown();
  bool dead() const { return dead_; }

  // ---- Stack-side API ----

  // Processes one incoming segment (softirq context; called by TcpStack).
  // `ecn_ce` is the IP-layer Congestion Experienced mark applied by a
  // switch along the path (Packet::ecn_ce).
  void HandleSegment(const TcpSegment& seg, bool ecn_ce = false);

  // NIC TX-completion notification (flushes auto-corked data).
  void OnTxCompletions(size_t n);

  // Seeds the peer's receive window before any ack arrives (the topology
  // builder calls this with the peer's configured rcvbuf, standing in for
  // the window learned during the handshake).
  void InitPeerWindow(uint64_t bytes) {
    peer_rwnd_ = bytes;
    peer_rwnd_max_ = std::max(peer_rwnd_max_, bytes);
  }

  // Sets the peer host address stamped on every outgoing wire packet so a
  // switched fabric can forward it (ConnectPair wires this automatically;
  // 0 on point-to-point paths, where links ignore the address).
  void SetPeerHost(uint32_t id) { peer_host_ = id; }
  uint32_t peer_host() const { return peer_host_; }

  // Sets the local host address stamped as the source on every outgoing
  // wire packet. Together with the destination it forms the flow key a
  // multi-path fabric hashes for ECMP path pinning (ConnectPair wires this
  // automatically; 0 on point-to-point paths).
  void SetLocalHost(uint32_t id) { local_host_ = id; }
  uint32_t local_host() const { return local_host_; }

  // ---- Introspection ----

  EndpointQueues& queues() { return queues_; }
  ConnectionEstimator& estimator() { return estimator_; }
  const TcpConfig& config() const { return config_; }
  const RttEstimator& rtt() const { return rtt_; }
  const CongestionControlAlgorithm& congestion() const { return *cc_; }
  // Ground-truth sender state, readable in-sim (the diagnosis validation
  // harness compares the switch's passive inference against these).
  uint64_t flight_bytes() const { return snd_nxt_ - sndq_.head_offset(); }
  uint64_t unsent_bytes() const { return sndq_.tail_offset() - snd_nxt_; }
  uint64_t peer_rwnd() const { return peer_rwnd_; }
  bool in_recovery() const { return recovery_->in_recovery(); }
  // Time of the most recent segment arrival: the health layer's evidence
  // that the peer is talking at all (src/core/health.h).
  TimePoint last_rx() const { return last_rx_; }
  uint64_t conn_id() const { return conn_id_; }
  bool is_a() const { return is_a_; }
  Host* host() { return host_; }

  // The counters the endpoint keeps itself; Stats adds its recovery
  // policy's (RecoveryStats).
  struct Counters {
    uint64_t sends = 0;
    uint64_t recvs = 0;
    uint64_t bytes_queued = 0;
    uint64_t data_segments_sent = 0;
    uint64_t wire_packets_sent = 0;
    uint64_t bytes_sent = 0;
    uint64_t pure_acks_sent = 0;
    uint64_t acks_piggybacked = 0;
    uint64_t delack_timer_fires = 0;
    uint64_t segments_received = 0;
    uint64_t bytes_received = 0;
    uint64_t ooo_segments = 0;
    uint64_t retransmits = 0;
    uint64_t nagle_holds = 0;
    uint64_t autocork_holds = 0;
    uint64_t nagle_timer_fires = 0;
    uint64_t persist_probes = 0;
    uint64_t exchanges_sent = 0;
    uint64_t exchanges_received = 0;
    uint64_t send_buffer_full = 0;
    // Loss recovery (SACK / RACK / TLP; zero with the features off).
    uint64_t rtt_ts_samples = 0;      // Karn-safe timestamp RTT samples taken.
    uint64_t sack_blocks_sent = 0;    // Blocks actually emitted on acks.
    uint64_t sack_retransmits = 0;    // Hole repairs driven by the scoreboard.
    uint64_t tlp_probes = 0;          // Tail-loss probes sent.
    uint64_t rto_fires = 0;           // Retransmission timeouts that fired.
    uint64_t dup_segments_received = 0;  // Fully-duplicate data arrivals (the
                                         // receiver-side spurious-retransmit
                                         // signal).
    // Option-space arbitration sheds (see ArbitrateOptions).
    uint64_t sack_blocks_trimmed = 0;
    uint64_t exchange_deferrals = 0;
    uint64_t ts_omitted = 0;
    // Dead-peer machinery.
    uint64_t keepalive_probes = 0;
    uint64_t dead_peer_declarations = 0;
    uint64_t persist_backoffs = 0;    // Persist interval doublings applied.
    // ECN round trip (all zero unless config.cc.ecn is on).
    uint64_t ce_received = 0;     // CE-marked data segments that arrived.
    uint64_t ece_sent = 0;        // Acks we sent carrying the ECE echo.
    uint64_t ece_received = 0;    // Acks that arrived carrying ECE.
    uint64_t cwr_sent = 0;        // Segments we sent carrying CWR.
    uint64_t cwr_received = 0;    // Segments that arrived carrying CWR.
  };
  struct Stats : Counters, RecoveryStats {};
  Stats stats() const { return Stats{stats_, recovery_->stats()}; }

 private:
  // Why a push was triggered; controls Nagle-override and pure-ack behavior.
  enum class PushReason {
    kApp,            // send() syscall.
    kAckAdvance,     // Incoming ack freed window / released Nagle hold.
    kNagleTimer,     // Nagle safety timeout — small send is forced out.
    kTxCompletion,   // NIC TX completion — auto-cork flush.
    kDelackTimer,    // Delayed-ack timeout — a pure ack is due.
    kImmediateAck,   // >= 2 MSS of unacked receive data — ack now.
    kDupAck,         // Duplicate or out-of-order data: ack unconditionally
                     // (RFC 5681 — the peer may have missed our last ack).
    kExchangeTimer,  // Metadata exchange fallback when no data piggybacks.
    kWindow,         // Receive window reopened — send a window update.
  };

  struct PlannedPacket {
    Packet packet;
    Duration cost;
  };

  // Submits a push work item on `core`; planning happens at work start.
  void SubmitPush(CpuCore* core, PushReason reason);
  // Plans transmittable segments right now (mutates snd state), appending
  // the packets plus their CPU cost to `packets`.
  void PlanPush(PushReason reason, std::vector<PlannedPacket>& packets);
  // The list a work item on `core` plans into at its start and transmits
  // from at its done. One list per host core is enough: a CpuCore runs one
  // item at a time, and an item's done empties the list before the core
  // can start another.
  std::vector<PlannedPacket>& PlannedOn(CpuCore* core) {
    return planned_[core == &host_->app_core() ? 0 : 1];
  }
  // Hands every packet planned on `core` to the NIC and empties the list.
  void TransmitPlanned(CpuCore* core);
  // The single-packet probe paths (persist, TLP, retransmit, keepalive):
  // PlanProbe queues `packet` on `core`'s list and returns the work cost;
  // TransmitProbe sends it unless the endpoint closed in the meantime.
  Duration PlanProbe(CpuCore* core, PlannedPacket packet);
  void TransmitProbe(CpuCore* core);
  // Builds one (possibly TSO super-) segment covering
  // [snd_nxt_, snd_nxt_ + take) and advances snd_nxt_.
  PlannedPacket BuildDataPacket(uint64_t take);
  // Builds a retransmission of up to one MSS starting at snd_una.
  PlannedPacket BuildRetransmit();
  // Queues a retransmission of the head segment on the softirq core.
  void SubmitRetransmit();
  // Carries out what the recovery policy asked for after an event.
  void Apply(const RecoveryAction& action);
  // Builds the wire packet (with TSO slices when `take` exceeds one MSS)
  // for [start, start + take); shared by the two builders above.
  PlannedPacket BuildPacketFor(uint64_t start, uint64_t take, bool is_retransmit);
  void OnRtoFire();
  // Fills ack/window fields (and the e2e option when due) on a segment.
  void StampOutgoing(TcpSegment& seg, bool force_exchange);
  // A zero-length segment at `seq`: a pure ack, or a keepalive probe.
  PlannedPacket BuildPureAck(bool force_exchange, uint64_t seq);

  bool MaySendSmallNow(uint64_t pending, PushReason reason);
  uint64_t EffectiveCorkLimit() const;

  // ---- Options, probes and dead-peer machinery ----

  // Bytes the window counts as in flight (the policy's pipe).
  uint64_t PipeBytes() const { return recovery_->InFlight(sndq_.head_offset(), snd_nxt_); }
  // Receiver: SACK blocks describing ooo_, most recent arrival first.
  std::vector<SackBlock> BuildSackBlocks() const;
  // Sender's microsecond timestamp clock (never returns 0).
  uint32_t TsClockNow() const;
  void OnTlpFire();
  // Runs the policy's DetectLosses again after `delay` (RecoveryAction::
  // recheck); one check pending at a time.
  void ArmRecheckTimer(Duration delay);
  void ArmKeepaliveTimer(Duration delay);
  void OnKeepaliveFire();
  void DeclareDeadPeer(const char* reason);

  void ProcessAck(const TcpSegment& seg);
  void ProcessData(const TcpSegment& seg, bool ecn_ce);
  void DeliverInOrder(uint64_t end_offset, std::vector<BoundaryEntry> boundaries);
  void MaybeAckOnReceive();
  void ArmDelackTimer();
  void ArmNagleTimer();
  void ArmRtoTimer();
  // Zero-window persist: when data is pending, nothing is in flight, and
  // the peer's window is closed, probe with one byte so a lost window
  // update cannot deadlock the connection.
  void ArmPersistTimer();
  void CancelTimer(EventId& id);
  // Runs `fire` after `delay` unless `timer` is already armed; the timer
  // reads unarmed again when it fires.
  template <typename Fn>
  void ArmOnce(EventId& timer, Duration delay, Fn fire);
  // Exchange on change (DESIGN.md §6): the timer fires every
  // e2e_exchange_interval while anything changes and parks once
  // ExchangeQuiet() holds; the next change resumes it.
  void ScheduleExchangeTimer();
  void OnExchangeTimer();
  void ResumeExchangeTimer();
  // No queued, unread, unacknowledged or out-of-order data on this side,
  // and no outstanding hinted request.
  bool LocallyIdle() const;
  // A standalone exchange now would repeat what both peers already know.
  bool ExchangeQuiet() const;
  void OnAckSent(uint64_t acked_to);  // Updates rcv_wup_ + ackdelay queues.

  uint64_t AdvertisedWindow() const;
  // MSS-grid crossings in (from, to] — the "packets" unit accounting.
  int64_t PacketUnits(uint64_t from, uint64_t to) const;
  void TrackThree(QueueKind kind, int64_t bytes, int64_t packets, int64_t syscalls);
  // An instant on this endpoint's trace track ("conn<N>/client|server").
  TraceEvent TraceOn(TraceRecorder* tr, TraceCategory category, const char* name) const;

  Simulator* sim_;
  Host* host_;
  uint64_t conn_id_;
  bool is_a_;
  uint32_t peer_host_ = 0;
  uint32_t local_host_ = 0;
  TcpConfig config_;
  const StackCosts* costs_;
  std::optional<uint32_t> cork_limit_override_;

  // ---- Send side ----
  ByteStreamQueue sndq_;  // head = snd_una; bytes retained until acked.
  uint64_t snd_nxt_ = 0;
  uint64_t peer_rwnd_ = 65536;  // Until the first ack; see InitPeerWindow().
  uint64_t peer_rwnd_max_ = 0;  // Largest window the peer ever offered.
  std::unique_ptr<CongestionControlAlgorithm> cc_;
  bool cwr_pending_ = false;    // Window was reduced: announce CWR on the
                                // next outgoing segment (RFC 3168 §6.1.2).
  bool send_blocked_ = false;   // A Send() failed; fire writable_cb_ on space.
  RttEstimator rtt_;
  EventId nagle_timer_ = kInvalidEventId;
  EventId rto_timer_ = kInvalidEventId;
  EventId persist_timer_ = kInvalidEventId;
  bool nagle_override_pending_ = false;
  std::optional<uint64_t> timed_end_;  // RTT sample: ack target offset.
  TimePoint timed_sent_at_;
  bool hold_for_completion_ = false;  // Auto-cork armed.
  // Loss detection, repair choice and the recovery episode.
  std::unique_ptr<LossRecovery> recovery_;
  EventId recheck_timer_ = kInvalidEventId;  // RecoveryAction::recheck.
  int consecutive_rtos_ = 0;  // R2 give-up accounting (rto_give_up).

  // RFC 7323 receiver state: the TSval to echo (ts_recent), per the
  // "earliest unacked segment" update rule that keeps RTTM honest under
  // delayed acks.
  uint32_t ts_recent_ = 0;
  bool ts_recent_valid_ = false;

  // Dead-peer detection.
  EventId keepalive_timer_ = kInvalidEventId;
  TimePoint last_rx_;
  int keepalive_unanswered_ = 0;
  bool dead_peer_declared_ = false;
  DeadPeerFn dead_peer_cb_;

  // Zero-window persist backoff: the probe interval doubles per unanswered
  // probe (capped at config_.persist_max_interval) instead of re-firing at
  // the instantaneous RTO.
  int persist_backoff_shift_ = 0;

  // ---- Receive side ----
  ByteStreamQueue rcvq_;  // head = app read position, tail = rcv_nxt.
  uint64_t rcv_nxt_ = 0;
  uint64_t rcv_wup_ = 0;  // Highest ack we sent.
  struct OooSegment {
    uint64_t len = 0;
    std::vector<BoundaryEntry> boundaries;  // Absolute offsets.
  };
  std::map<uint64_t, OooSegment> ooo_;  // Keyed by start offset.
  uint64_t ooo_bytes_ = 0;
  // Start offset of the most recent out-of-order arrival: RFC 2018 wants
  // the SACK block containing it listed first.
  uint64_t last_ooo_arrival_ = 0;
  EventId delack_timer_ = kInvalidEventId;
  Ring<uint64_t> unacked_rx_boundaries_;  // Syscall-unit ackdelay queue.
  // ECN receiver state. Classic ECN (RFC 3168) latches the echo until the
  // peer answers with CWR; DCTCP (RFC 8257) instead echoes the CE state of
  // the segments covered by each individual ack (the latch clears whenever
  // an ack goes out) and acks immediately on every CE-state transition.
  bool ece_echo_pending_ = false;
  bool ce_state_ = false;  // DCTCP: CE bit of the most recent data arrival.
  uint64_t last_advertised_window_ = 0;
  uint64_t adv_right_edge_ = 0;  // Highest rcv_nxt + window ever advertised.

  // ---- Instrumentation & estimation ----
  EndpointQueues queues_;
  ConnectionEstimator estimator_;
  HintTracker* hint_tracker_ = nullptr;
  TimePoint last_exchange_sent_;
  EventId exchange_timer_ = kInvalidEventId;
  bool force_exchange_ = false;  // One-shot on-demand exchange pending.
  // Exchange-on-change state (flags, not payload copies: they pack into
  // the padding after force_exchange_).
  bool tracked_since_exchange_ = false;  // A queue moved since the last
                                         // exchange went out.
  bool last_exchange_quiet_ = true;      // That exchange repeated the one
                                         // before it. The construction
                                         // state (all zero) counts as an
                                         // exchange both sides know.
  bool exchange_parked_ = false;         // Timer parked at the idle refresh.

  ReadableFn readable_cb_;
  WritableFn writable_cb_;
  EstimateFn estimate_cb_;
  MetadataFilterFn metadata_filter_;
  Counters stats_;
  uint64_t next_packet_id_ = 1;
  bool dead_ = false;
  std::vector<PlannedPacket> planned_[2];  // [0] app core, [1] softirq core.
};

}  // namespace e2e

#endif  // SRC_TCP_ENDPOINT_H_
