#include "src/tcp/endpoint.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <memory>
#include <utility>

#include "src/sim/logging.h"
#include "src/tcp/segment_codec.h"
#include "src/tcp/sequence.h"

namespace e2e {
namespace {

// The wire clock wraps every 2^32 us and a delta above 2^31 us reads as a
// wrap violation (src/core/wire_format.h), which would lock the peer's
// estimator out for good. A parked exchange timer therefore still fires
// once per half that range.
constexpr Duration kIdleExchangeRefresh = Duration::Micros(kMaxPlausibleIntervalUs / 2);

}  // namespace

TcpEndpoint::TcpEndpoint(Simulator* sim, Host* host, uint64_t conn_id, bool is_a,
                         const TcpConfig& config, const StackCosts* costs)
    : sim_(sim),
      host_(host),
      conn_id_(conn_id),
      is_a_(is_a),
      config_(config),
      costs_(costs),
      cc_(MakeCongestionControl([&config] {
        CcConfig cc = config.cc;
        cc.mss = config.mss;
        return cc;
      }())),
      rtt_(config.rtt),
      recovery_(MakeLossRecovery(config)),
      last_rx_(sim->Now()),
      queues_(sim->Now()),
      estimator_(config.e2e_mode),
      last_exchange_sent_(sim->Now()) {
  assert(sim_ != nullptr && host_ != nullptr && costs_ != nullptr);
  if (config_.e2e_exchange_interval > Duration::Zero()) {
    ScheduleExchangeTimer();
  }
  if (config_.keepalive.enabled) {
    ArmKeepaliveTimer(config_.keepalive.idle);
  }
}

// ---------------------------------------------------------------------------
// Application-side API.
// ---------------------------------------------------------------------------

uint64_t TcpEndpoint::SendBufferAvailable() const {
  return config_.sndbuf_bytes - std::min(config_.sndbuf_bytes, sndq_.size_bytes());
}

bool TcpEndpoint::Send(uint64_t len, MessageRecord record) {
  record.syscall_end = true;
  std::vector<BatchItem> items(1);
  items[0].len = len;
  items[0].record = std::move(record);
  return SendBatch(std::move(items));
}

void TcpEndpoint::Shutdown() {
  if (dead_) {
    return;
  }
  dead_ = true;
  CancelTimer(nagle_timer_);
  CancelTimer(rto_timer_);
  CancelTimer(persist_timer_);
  CancelTimer(delack_timer_);
  CancelTimer(exchange_timer_);
  CancelTimer(recheck_timer_);
  CancelTimer(keepalive_timer_);
  force_exchange_ = false;
  exchange_parked_ = false;
  hold_for_completion_ = false;
  send_blocked_ = false;
  readable_cb_ = nullptr;
  writable_cb_ = nullptr;
  estimate_cb_ = nullptr;
  metadata_filter_ = nullptr;
  hint_tracker_ = nullptr;
  dead_peer_cb_ = nullptr;
}

bool TcpEndpoint::SendBatch(std::vector<BatchItem> items) {
  assert(!items.empty());
  if (dead_) {
    return false;
  }
  uint64_t total = 0;
  for (const BatchItem& item : items) {
    assert(item.len > 0);
    total += item.len;
  }
  if (sndq_.size_bytes() + total > config_.sndbuf_bytes) {
    ++stats_.send_buffer_full;
    send_blocked_ = true;
    return false;
  }
  const uint64_t old_tail = sndq_.tail_offset();
  for (size_t i = 0; i < items.size(); ++i) {
    BatchItem& item = items[i];
    item.record.send_time = sim_->Now();
    item.record.syscall_end = i + 1 == items.size();
    sndq_.Append(item.len);
    sndq_.AddBoundary(sndq_.tail_offset(), std::move(item.record));
    ++stats_.sends;
  }
  stats_.bytes_queued += total;
  if (TraceRecorder* tr = TraceIf(TraceCategory::kSyscall)) {
    TraceEvent e = TraceOn(tr, TraceCategory::kSyscall, "send");
    e.k1 = "bytes";
    e.v1 = static_cast<double>(total);
    e.k2 = "messages";
    e.v2 = static_cast<double>(items.size());
    tr->Record(e);
  }
  // One syscall unit regardless of how many messages the call carried.
  TrackThree(QueueKind::kUnacked, static_cast<int64_t>(total),
             PacketUnits(old_tail, old_tail + total), 1);
  SubmitPush(&host_->app_core(), PushReason::kApp);
  return true;
}

bool TcpEndpoint::SendWithHints(uint64_t len, MessageRecord record, HintTracker* hints) {
  hint_tracker_ = hints;
  return Send(len, std::move(record));
}

TcpEndpoint::RecvResult TcpEndpoint::Recv(uint64_t max_bytes) {
  if (dead_) {
    return RecvResult{};
  }
  const uint64_t old_head = rcvq_.head_offset();
  ByteStreamQueue::Consumed consumed = rcvq_.Consume(max_bytes);
  RecvResult result;
  result.bytes = consumed.bytes;
  result.messages.reserve(consumed.completed.size());
  for (BoundaryEntry& entry : consumed.completed) {
    result.messages.push_back(std::move(entry.record));
  }
  if (consumed.bytes > 0) {
    ++stats_.recvs;
    if (TraceRecorder* tr = TraceIf(TraceCategory::kSyscall)) {
      TraceEvent e = TraceOn(tr, TraceCategory::kSyscall, "recv");
      e.k1 = "bytes";
      e.v1 = static_cast<double>(consumed.bytes);
      e.k2 = "messages";
      e.v2 = static_cast<double>(result.messages.size());
      tr->Record(e);
    }
    int64_t syscall_units = 0;
    for (const MessageRecord& record : result.messages) {
      syscall_units += record.syscall_end ? 1 : 0;
    }
    TrackThree(QueueKind::kUnread, -static_cast<int64_t>(consumed.bytes),
               -PacketUnits(old_head, rcvq_.head_offset()), -syscall_units);
    // Send a window update if reading reopened a meaningfully larger window
    // than last advertised (Linux sends these from the read syscall path).
    const uint64_t window = AdvertisedWindow();
    if (window >= last_advertised_window_ + 2 * config_.mss ||
        (last_advertised_window_ < config_.mss && window >= config_.mss)) {
      SubmitPush(&host_->app_core(), PushReason::kWindow);
    }
  }
  return result;
}

void TcpEndpoint::SetNoDelay(bool nodelay) {
  if (dead_) {
    return;
  }
  const bool was = config_.nodelay;
  config_.nodelay = nodelay;
  if (nodelay && !was && snd_nxt_ < sndq_.tail_offset()) {
    // Push anything Nagle was holding. Runs on the app core: toggling is a
    // setsockopt-style application action.
    SubmitPush(&host_->app_core(), PushReason::kApp);
  }
}

void TcpEndpoint::RequestExchange() {
  if (dead_) {
    return;
  }
  force_exchange_ = true;
  // Give outbound data a short window to piggyback the option; if nothing
  // carries it by then, fall back to a pure ack.
  sim_->Schedule(Duration::Micros(100), [this] {
    if (force_exchange_) {
      SubmitPush(&host_->softirq_core(), PushReason::kExchangeTimer);
    }
  });
}

void TcpEndpoint::SetCorkLimit(std::optional<uint32_t> bytes) {
  if (dead_) {
    return;
  }
  cork_limit_override_ = bytes;
  if (snd_nxt_ < sndq_.tail_offset()) {
    SubmitPush(&host_->app_core(), PushReason::kApp);
  }
}

// ---------------------------------------------------------------------------
// Transmit path.
// ---------------------------------------------------------------------------

uint64_t TcpEndpoint::EffectiveCorkLimit() const {
  return cork_limit_override_.value_or(config_.mss);
}

bool TcpEndpoint::MaySendSmallNow(uint64_t pending, PushReason reason) {
  const bool in_flight = snd_nxt_ > sndq_.head_offset();
  const bool nagle_ok = config_.nodelay || !in_flight || reason == PushReason::kNagleTimer ||
                        pending >= EffectiveCorkLimit();
  if (!nagle_ok) {
    ++stats_.nagle_holds;
    ArmNagleTimer();
    return false;
  }
  if (config_.autocork && reason != PushReason::kTxCompletion &&
      host_->nic().tx_in_flight() > 0) {
    ++stats_.autocork_holds;
    hold_for_completion_ = true;
    return false;
  }
  return true;
}

void TcpEndpoint::PlanPush(PushReason reason, std::vector<PlannedPacket>& packets) {
  assert(packets.empty());
  if (dead_) {
    return;  // Work submitted before Shutdown() plans nothing.
  }

  // Hole repair comes before new data: retransmit what the policy marked
  // lost, gated on its pipe. The first repair is exempt (the rescue
  // retransmission) so the head hole always moves even when the pipe
  // estimate is pessimistic; repairs stay ack-clocked because each
  // PlanPush runs from one ack or timer.
  const uint64_t repair_window = std::min(peer_rwnd_, cc_->window_bytes());
  for (std::optional<SeqRange> hole = recovery_->NextRepair(0); hole.has_value();
       hole = recovery_->NextRepair(hole->end)) {
    const uint64_t len = hole->end - hole->start;
    if (!packets.empty() && PipeBytes() + len > repair_window) {
      break;
    }
    ++stats_.sack_retransmits;
    timed_end_.reset();  // Karn: no timed sample across a retransmission.
    // The send (inside BuildPacketFor) clears the lost mark and re-stamps
    // the send time, so the pipe re-counts it and RACK can condemn a lost
    // retransmission again.
    packets.push_back(BuildPacketFor(hole->start, len, /*is_retransmit=*/true));
  }
  if (!packets.empty()) {
    ArmRtoTimer();
  }

  while (true) {
    const uint64_t pending = sndq_.tail_offset() - snd_nxt_;
    if (pending == 0) {
      CancelTimer(nagle_timer_);
      break;
    }
    const uint64_t window = std::min(peer_rwnd_, cc_->window_bytes());
    const uint64_t in_flight = PipeBytes();
    const uint64_t window_avail = window > in_flight ? window - in_flight : 0;
    const uint64_t usable = std::min(pending, window_avail);
    if (usable == 0) {
      break;  // Window-limited; persist arming happens below.
    }
    // Sender-side silly-window avoidance (RFC 1122): a window-clipped
    // sub-MSS send is worthwhile only when it is at least half the largest
    // window the peer ever offered (handles peers whose whole buffer is
    // smaller than the MSS).
    const uint64_t sws_threshold =
        std::max<uint64_t>(1, std::min<uint64_t>(config_.mss, peer_rwnd_max_ / 2));
    uint64_t take = 0;
    if (usable >= config_.mss) {
      const uint64_t full = usable - usable % config_.mss;
      const uint64_t cap = config_.tso ? config_.tso_max_bytes : config_.mss;
      take = std::min<uint64_t>(full, cap);
      // Include the sub-MSS tail in this (TSO) segment when it is the end
      // of the buffer and would be sendable on its own — what
      // tcp_write_xmit does rather than leaving a one-packet remainder.
      if (take == full && usable == pending && usable - full > 0 && usable <= cap &&
          MaySendSmallNow(pending, reason)) {
        take = usable;
      }
    } else if (pending == usable && MaySendSmallNow(pending, reason)) {
      take = usable;
    } else if (usable < pending && usable >= sws_threshold &&
               MaySendSmallNow(usable, reason)) {
      take = usable;  // Window-clipped but above the SWS threshold.
    } else {
      break;  // Small tail held (Nagle / auto-cork) or window-clipped tail.
    }
    packets.push_back(BuildDataPacket(take));
  }

  // Persist arming: data pending, nothing in flight, nothing sendable. A
  // window update would normally retrigger us, but updates are unreliable
  // pure acks; probe so a lost one cannot deadlock the connection.
  if (packets.empty() && sndq_.tail_offset() > snd_nxt_ &&
      snd_nxt_ == sndq_.head_offset() &&
      std::min(peer_rwnd_, cc_->window_bytes()) < config_.mss) {
    ArmPersistTimer();
  }

  if (packets.empty()) {
    const bool ack_due =
        ((reason == PushReason::kDelackTimer || reason == PushReason::kImmediateAck) &&
         rcv_nxt_ > rcv_wup_) ||
        reason == PushReason::kDupAck;
    const bool window_update = reason == PushReason::kWindow;
    const bool exchange_due =
        reason == PushReason::kExchangeTimer &&
        (force_exchange_ || (config_.e2e_exchange_interval > Duration::Zero() &&
                             sim_->Now() - last_exchange_sent_ >= config_.e2e_exchange_interval));
    if (ack_due || window_update || exchange_due) {
      packets.push_back(BuildPureAck(exchange_due, snd_nxt_));
    }
  }
}

void TcpEndpoint::SubmitPush(CpuCore* core, PushReason reason) {
  core->Submit(
      [this, core, reason]() -> Duration {
        std::vector<PlannedPacket>& planned = PlannedOn(core);
        PlanPush(reason, planned);
        Duration cost;
        for (const PlannedPacket& p : planned) {
          cost += p.cost;
        }
        if (!planned.empty()) {
          cost += costs_->doorbell;
        }
        return cost;
      },
      [this, core] { TransmitPlanned(core); });
}

void TcpEndpoint::TransmitPlanned(CpuCore* core) {
  std::vector<PlannedPacket>& planned = PlannedOn(core);
  for (PlannedPacket& p : planned) {
    host_->nic().Transmit(std::move(p.packet));
  }
  planned.clear();
}

void TcpEndpoint::StampOutgoing(TcpSegment& seg, bool force_exchange) {
  seg.conn_id = conn_id_;
  seg.from_a = is_a_;
  seg.flags |= kFlagAck;
  seg.ack = WrapSeq(rcv_nxt_);
  // Never renege: the advertised right edge (ack + window) must not move
  // left even when SWS avoidance clamps the raw window to zero.
  uint64_t window = AdvertisedWindow();
  if (rcv_nxt_ + window < adv_right_edge_) {
    window = adv_right_edge_ - rcv_nxt_;
  } else {
    adv_right_edge_ = rcv_nxt_ + window;
  }
  seg.window = static_cast<uint32_t>(std::min<uint64_t>(window, UINT32_MAX));
  last_advertised_window_ = seg.window;
  if (config_.cc.ecn) {
    if (ece_echo_pending_) {
      seg.flags |= kFlagEce;
      ++stats_.ece_sent;
      if (config_.cc.algorithm == CcAlgorithm::kDctcp) {
        ece_echo_pending_ = false;  // Per-ack echo; classic ECN stays
                                    // latched until the peer's CWR.
      }
    }
    if (cwr_pending_) {
      seg.flags |= kFlagCwr;
      ++stats_.cwr_sent;
      cwr_pending_ = false;
    }
  }
  if (rcv_nxt_ > rcv_wup_ && seg.len > 0) {
    ++stats_.acks_piggybacked;
  }
  OnAckSent(rcv_nxt_);
  const Duration interval = config_.e2e_exchange_interval;
  bool attach_exchange =
      force_exchange || force_exchange_ ||
      (interval > Duration::Zero() && sim_->Now() - last_exchange_sent_ >= interval);
  if (config_.features.timestamps || config_.features.sack) {
    // Timestamps, SACK blocks, and the exchange payload compete for the
    // 40-byte option space; the arbiter decides what this segment carries
    // and the shed counters record what it could not.
    std::vector<SackBlock> blocks = BuildSackBlocks();
    OptionDemand demand;
    demand.timestamps = config_.features.timestamps;
    demand.sack_blocks = blocks.size();
    demand.exchange_due = attach_exchange;
    // A forced (on-demand / pure-ack fallback) exchange, or one already a
    // full extra interval late, is overdue: it may evict timestamps.
    demand.exchange_overdue =
        force_exchange || force_exchange_ ||
        (interval > Duration::Zero() && sim_->Now() - last_exchange_sent_ >= 2 * interval);
    demand.exchange_size =
        2 + (hint_tracker_ != nullptr ? kWirePayloadMaxSize : kWirePayloadBaseSize);
    const OptionPlan plan = ArbitrateOptions(demand);
    if (plan.timestamps) {
      TsOption ts;
      ts.tsval = TsClockNow();
      ts.tsecr = ts_recent_valid_ ? ts_recent_ : 0;
      seg.ts = ts;
    }
    blocks.resize(plan.sack_blocks);
    stats_.sack_blocks_sent += plan.sack_blocks;
    seg.sack = std::move(blocks);
    stats_.sack_blocks_trimmed += plan.sack_blocks_trimmed;
    if (plan.exchange_deferred) {
      ++stats_.exchange_deferrals;
    }
    if (plan.timestamps_omitted) {
      ++stats_.ts_omitted;
    }
    attach_exchange = plan.exchange;
  }
  if (attach_exchange) {
    seg.e2e_option = estimator_.BuildLocalPayload(queues_, hint_tracker_, sim_->Now());
    last_exchange_sent_ = sim_->Now();
    force_exchange_ = false;
    // Unchanged counters and empty queues mean this payload repeats the
    // previous one (only its timestamp moved).
    last_exchange_quiet_ = !tracked_since_exchange_ && LocallyIdle();
    tracked_since_exchange_ = false;
    ++stats_.exchanges_sent;
    if (TraceRecorder* tr = TraceIf(TraceCategory::kEstimator)) {
      TraceEvent e = TraceOn(tr, TraceCategory::kEstimator, "exchange_sent");
      e.k1 = "has_hint";
      e.v1 = seg.e2e_option->hint.has_value() ? 1.0 : 0.0;
      tr->Record(e);
    }
  }
}

TcpEndpoint::PlannedPacket TcpEndpoint::BuildPacketFor(uint64_t start, uint64_t take,
                                                       bool is_retransmit) {
  assert(take > 0);
  // Slices cover consecutive ranges, so one cursor walks the send queue's
  // boundaries in (start, start + take] exactly once.
  size_t next_boundary = sndq_.FirstBoundaryAfter(start);

  Packet packet;
  packet.id = next_packet_id_++;
  packet.wire_bytes = take + kWireHeaderBytes;
  packet.dst_host = peer_host_;
  packet.src_host = local_host_;

  auto make_segment = [&](uint64_t seg_start, uint64_t seg_len) {
    auto seg = std::make_shared<TcpSegment>();
    seg->seq = WrapSeq(seg_start);
    seg->len = static_cast<uint32_t>(seg_len);
    seg->is_retransmit = is_retransmit;
    for (; next_boundary < sndq_.boundary_count(); ++next_boundary) {
      const BoundaryEntry& b = sndq_.boundary(next_boundary);
      if (b.end_offset > seg_start + seg_len) {
        break;
      }
      seg->boundaries.push_back(
          TcpSegment::Boundary{static_cast<uint32_t>(b.end_offset - seg_start), b.record});
      seg->flags |= kFlagPsh;
    }
    return seg;
  };

  // Note: when the first slice attaches the e2e option it refreshes
  // last_exchange_sent_, which automatically suppresses the option on the
  // remaining slices of this super-segment.
  auto stamp = [&](TcpSegment& seg) { StampOutgoing(seg, false); };

  if (take <= config_.mss) {
    auto seg = make_segment(start, take);
    if (start + take == sndq_.tail_offset()) {
      seg->flags |= kFlagPsh;
    }
    stamp(*seg);
    recovery_->OnSent(start, start + take, is_retransmit, sim_->Now());
    packet.payload = std::move(seg);
  } else {
    // TSO super-segment: the stack pays one TX cost; the NIC emits the
    // MTU-sized slices built here.
    packet.slices.reserve((take + config_.mss - 1) / config_.mss);
    for (uint64_t off = 0; off < take; off += config_.mss) {
      const uint64_t slice_len = std::min<uint64_t>(config_.mss, take - off);
      Packet slice;
      slice.id = next_packet_id_++;
      slice.wire_bytes = slice_len + kWireHeaderBytes;
      slice.dst_host = peer_host_;
      slice.src_host = local_host_;
      auto seg = make_segment(start + off, slice_len);
      if (off + slice_len == take && start + take == sndq_.tail_offset()) {
        seg->flags |= kFlagPsh;
      }
      stamp(*seg);
      recovery_->OnSent(start + off, start + off + slice_len, is_retransmit, sim_->Now());
      slice.payload = std::move(seg);
      packet.slices.push_back(std::move(slice));
    }
  }

  ++stats_.data_segments_sent;
  stats_.wire_packets_sent += packet.IsSuperSegment() ? packet.slices.size() : 1;
  stats_.bytes_sent += take;
  if (is_retransmit) {
    ++stats_.retransmits;
  }

  PlannedPacket planned;
  planned.packet = std::move(packet);
  planned.cost = costs_->tx_per_segment + costs_->tx_per_byte * static_cast<int64_t>(take);
  return planned;
}

TcpEndpoint::PlannedPacket TcpEndpoint::BuildDataPacket(uint64_t take) {
  const uint64_t start = snd_nxt_;
  // After an RTO rewind the normal send path re-covers old sequence space;
  // those segments are retransmissions (counted as such, never RTT-timed).
  const bool is_retransmit = recovery_->Resends(start);
  PlannedPacket planned = BuildPacketFor(start, take, is_retransmit);
  snd_nxt_ += take;
  // With timestamps on, every ack carries a Karn-safe sample (tsecr); the
  // one-timed-segment machinery is redundant.
  if (!is_retransmit && !timed_end_.has_value() && !config_.features.timestamps) {
    timed_end_ = snd_nxt_;
    timed_sent_at_ = sim_->Now();
  }
  ArmRtoTimer();
  return planned;
}

TcpEndpoint::PlannedPacket TcpEndpoint::BuildRetransmit() {
  const uint64_t start = sndq_.head_offset();
  // Exactly one MSS — the segment at the head is the one hole the ack
  // stream has exposed (RFC 6582 retransmits one segment per event).
  // Anything larger re-sends data the receiver has already stashed, and
  // each such duplicate comes back as a duplicate ack: a burst of them
  // re-trips the dup-ack threshold and the connection locks into a
  // self-sustaining spurious-retransmit loop.
  const uint64_t take = std::min<uint64_t>(config_.mss, snd_nxt_ - start);
  return BuildPacketFor(start, take, /*is_retransmit=*/true);
}

TcpEndpoint::PlannedPacket TcpEndpoint::BuildPureAck(bool force_exchange, uint64_t seq) {
  auto seg = std::make_shared<TcpSegment>();
  seg->seq = WrapSeq(seq);
  seg->len = 0;
  StampOutgoing(*seg, force_exchange);
  Packet packet;
  packet.id = next_packet_id_++;
  packet.wire_bytes = kWireHeaderBytes;
  packet.dst_host = peer_host_;
  packet.src_host = local_host_;
  packet.payload = std::move(seg);
  ++stats_.pure_acks_sent;
  PlannedPacket planned;
  planned.packet = std::move(packet);
  planned.cost = costs_->pure_ack_tx;
  return planned;
}

void TcpEndpoint::OnTxCompletions(size_t n) {
  (void)n;
  if (dead_) {
    return;
  }
  if (hold_for_completion_) {
    hold_for_completion_ = false;
    SubmitPush(&host_->softirq_core(), PushReason::kTxCompletion);
  }
}

// ---------------------------------------------------------------------------
// Receive path.
// ---------------------------------------------------------------------------

void TcpEndpoint::HandleSegment(const TcpSegment& seg, bool ecn_ce) {
  if (dead_) {
    return;  // Late segment for a torn-down incarnation: silently dropped.
  }
  ++stats_.segments_received;
  last_rx_ = sim_->Now();
  keepalive_unanswered_ = 0;  // Any arrival proves the peer is alive.
  if (config_.features.timestamps && seg.ts.has_value()) {
    // RFC 7323 §4.3 ts_recent update: take the TSval only from a segment
    // that starts at or before our last-sent ack, so a delayed ack echoes
    // the *earliest* unacked segment and RTTM stays honest.
    const uint64_t start = UnwrapSeq(seg.seq, rcv_nxt_);
    if (start <= rcv_wup_ &&
        (!ts_recent_valid_ ||
         static_cast<int32_t>(seg.ts->tsval - ts_recent_) >= 0)) {
      ts_recent_ = seg.ts->tsval;
      ts_recent_valid_ = true;
    }
  }
  if (config_.cc.ecn && (seg.flags & kFlagCwr) != 0) {
    ++stats_.cwr_received;
    if (config_.cc.algorithm != CcAlgorithm::kDctcp) {
      // RFC 3168 §6.1.3: the peer reduced its window; stop echoing ECE.
      // (DCTCP never latches, so there is nothing to clear.)
      ece_echo_pending_ = false;
    }
  }
  if (seg.e2e_option.has_value()) {
    ++stats_.exchanges_received;
    auto ingest = [&](const WirePayload& payload) {
      if (estimator_.OnRemotePayload(payload, queues_, hint_tracker_, sim_->Now()) &&
          exchange_parked_ && !estimator_.PeerQuiet()) {
        ResumeExchangeTimer();  // The peer's queues moved: so do ours.
      }
      if (TraceRecorder* tr = TraceIf(TraceCategory::kEstimator)) {
        TraceEvent e = TraceOn(tr, TraceCategory::kEstimator, "exchange_rx");
        e.k1 = "verdict";
        e.v1 = static_cast<double>(estimator_.last_verdict());
        e.k2 = "has_estimate";
        e.v2 = estimator_.has_estimate() ? 1.0 : 0.0;
        if (estimator_.has_estimate()) {
          e.k3 = "latency_us";
          e.v3 = static_cast<double>(estimator_.estimate().latency->ToMicros());
        }
        tr->Record(e);
      }
      if (estimate_cb_) {
        estimate_cb_(estimator_);
      }
    };
    if (metadata_filter_) {
      for (const WirePayload& payload : metadata_filter_(*seg.e2e_option)) {
        ingest(payload);
      }
    } else {
      ingest(*seg.e2e_option);
    }
  }
  if ((seg.flags & kFlagAck) != 0) {
    ProcessAck(seg);
  }
  if (seg.len > 0) {
    ProcessData(seg, ecn_ce);
  } else if (config_.keepalive.enabled && SeqBefore(seg.seq, WrapSeq(rcv_nxt_))) {
    // A zero-length segment below the window is a keepalive probe (seq =
    // snd_nxt - 1): answer with a duplicate ack so the prober's liveness
    // clock resets. Wire-space comparison, not unwrapped: a peer that has
    // never sent data probes from seq -1, which only the sign-based test
    // can place below rcv_nxt = 0 — otherwise its probes go unanswered and
    // a live peer gets declared dead after R2 silence. Gated on the
    // feature so baseline runs are unchanged.
    SubmitPush(&host_->softirq_core(), PushReason::kDupAck);
  }
}

void TcpEndpoint::ProcessAck(const TcpSegment& seg) {
  const uint64_t una = sndq_.head_offset();
  uint64_t ack_off = UnwrapSeq(seg.ack, una);
  if (ack_off > snd_nxt_) {
    ack_off = snd_nxt_;  // Bogus/futuristic ack; clamp.
  }
  const uint64_t prev_rwnd = peer_rwnd_;
  peer_rwnd_ = seg.window;
  peer_rwnd_max_ = std::max<uint64_t>(peer_rwnd_max_, seg.window);
  if (peer_rwnd_ >= config_.mss) {
    persist_backoff_shift_ = 0;  // Window reopened; probe pacing resets.
  }
  const TimePoint now = sim_->Now();
  // SACK blocks first: they refine the scoreboard the loss detector and
  // the pipe both reason over, whatever the cumulative ack does.
  const bool newly_sacked = recovery_->OnSackBlocks(seg.sack, una);
  // Any congestion reaction during this ack (ECN echo, fast retransmit, a
  // DCTCP window rollover) is announced to the peer with CWR, which is what
  // Linux does on every cwnd-reduction event when ECN is negotiated.
  const uint64_t decreases_before = cc_->decrease_events();
  if (config_.cc.ecn && (seg.flags & kFlagEce) != 0) {
    ++stats_.ece_received;
    // Before OnAck, with the same byte count (interface convention): DCTCP
    // attributes these bytes to its marked tally.
    cc_->OnEcnEcho(ack_off > una ? ack_off - una : 0, now);
  }
  if (ack_off > una) {
    consecutive_rtos_ = 0;  // R2 accounting resets on progress.
    Apply(recovery_->OnCumAck(ack_off, now));
    cc_->OnAck(ack_off - una, now);
    ByteStreamQueue::Consumed consumed = sndq_.ConsumeTo(ack_off);
    int64_t syscall_units = 0;
    for (const BoundaryEntry& entry : consumed.completed) {
      syscall_units += entry.record.syscall_end ? 1 : 0;
    }
    TrackThree(QueueKind::kUnacked, -static_cast<int64_t>(consumed.bytes),
               -PacketUnits(una, ack_off), -syscall_units);
    if (timed_end_.has_value() && ack_off >= *timed_end_) {
      const Duration sample = sim_->Now() - timed_sent_at_;
      rtt_.AddSample(sample);
      cc_->OnRttSample(sample, sim_->Now());
      timed_end_.reset();
    }
    if (config_.features.timestamps && seg.ts.has_value() && seg.ts->tsecr != 0) {
      // RFC 7323 RTTM: the echoed TSval identifies the exact transmission
      // this ack answers, so the sample is valid even across retransmits
      // (where Karn's rule starves the timed-segment estimator above).
      const uint32_t delta = TsClockNow() - seg.ts->tsecr;
      if (delta < 0x7FFFFFFF) {
        const Duration sample = Duration::Micros(delta);
        rtt_.AddSample(sample);
        cc_->OnRttSample(sample, sim_->Now());
        ++stats_.rtt_ts_samples;
      }
    }
    rtt_.ResetBackoff();  // Forward progress clears timeout backoff.
    CancelTimer(rto_timer_);
    if (snd_nxt_ > ack_off) {
      ArmRtoTimer();
    }
    if (send_blocked_ && SendBufferAvailable() > 0) {
      send_blocked_ = false;
      if (writable_cb_) {
        writable_cb_();
      }
    }
  } else if (ack_off == una && snd_nxt_ > una && seg.len == 0 && seg.window <= prev_rwnd) {
    // Duplicate ack for outstanding data. A pure ack that GROWS the
    // advertised window is a window update (the peer's app drained its
    // receive queue), not evidence of loss — RFC 5681 requires the window
    // to be unchanged. Genuine reorder/loss dup-acks still qualify: stashed
    // out-of-order bytes consume receive buffer, so their window never
    // grows. (The SACK policies ignore them: a dup-ack count would misfire
    // on acks whose only news is a SACK block.)
    Apply(recovery_->OnDupAck(snd_nxt_, now));
  }
  if (newly_sacked || ack_off > una) {
    Apply(recovery_->DetectLosses(snd_nxt_, rtt_, now));
  }
  if (config_.cc.ecn && cc_->decrease_events() > decreases_before) {
    cwr_pending_ = true;
  }
  // The ack may have released a Nagle hold, opened the peer window, or
  // exposed scoreboard holes to repair.
  if (snd_nxt_ < sndq_.tail_offset() || recovery_->has_lost()) {
    SubmitPush(&host_->softirq_core(), PushReason::kAckAdvance);
  }
}

void TcpEndpoint::ProcessData(const TcpSegment& seg, bool ecn_ce) {
  if (config_.cc.ecn) {
    if (ecn_ce) {
      ++stats_.ce_received;
      ece_echo_pending_ = true;  // Echoed on the next outgoing ack.
    }
    if (config_.cc.algorithm == CcAlgorithm::kDctcp && ecn_ce != ce_state_) {
      // RFC 8257 §3.3: ack immediately on a CE-state change so the per-ack
      // echo stays accurate under delayed acks. kDupAck acks
      // unconditionally (the pending latch rides along in StampOutgoing).
      ce_state_ = ecn_ce;
      SubmitPush(&host_->softirq_core(), PushReason::kDupAck);
    }
  }
  const uint64_t start = UnwrapSeq(seg.seq, rcv_nxt_);
  const uint64_t end = start + seg.len;

  if (start > rcv_nxt_) {
    // Out of order: stash and send an immediate duplicate ack.
    ++stats_.ooo_segments;
    last_ooo_arrival_ = start;
    OooSegment& slot = ooo_[start];
    if (end - start > slot.len) {
      ooo_bytes_ += (end - start) - slot.len;
      slot.len = end - start;
      slot.boundaries.clear();
      for (const TcpSegment::Boundary& b : seg.boundaries) {
        slot.boundaries.push_back(BoundaryEntry{start + b.rel_end, b.record});
      }
    }
    SubmitPush(&host_->softirq_core(), PushReason::kDupAck);
    return;
  }
  if (end <= rcv_nxt_) {
    // Entirely duplicate; re-ack unconditionally — our previous ack for
    // this data may have been lost. Counted as the receiver-side signal
    // of a spurious (or ack-loss-repairing) retransmission.
    ++stats_.dup_segments_received;
    SubmitPush(&host_->softirq_core(), PushReason::kDupAck);
    return;
  }

  std::vector<BoundaryEntry> bounds;
  for (const TcpSegment::Boundary& b : seg.boundaries) {
    bounds.push_back(BoundaryEntry{start + b.rel_end, b.record});
  }
  // Quickack (RFC 5681 and Linux's heuristic): ack at once when the sender
  // is repairing a loss — a segment that fills (part of) a gap, or one
  // re-sent after a timeout. A delayed ack here would clock the peer's
  // whole recovery off our 40 ms delack timer instead of the actual RTT.
  const bool quickack = seg.is_retransmit || !ooo_.empty();
  DeliverInOrder(end, std::move(bounds));

  // Drain any out-of-order segments that became contiguous.
  while (!ooo_.empty()) {
    auto it = ooo_.begin();
    if (it->first > rcv_nxt_) {
      break;
    }
    const uint64_t seg_end = it->first + it->second.len;
    ooo_bytes_ -= it->second.len;
    if (seg_end > rcv_nxt_) {
      DeliverInOrder(seg_end, std::move(it->second.boundaries));
    }
    ooo_.erase(it);
  }

  if (quickack) {
    SubmitPush(&host_->softirq_core(), PushReason::kImmediateAck);
  } else {
    MaybeAckOnReceive();
  }
  if (readable_cb_ && !rcvq_.empty()) {
    readable_cb_();
  }
}

void TcpEndpoint::DeliverInOrder(uint64_t end_offset, std::vector<BoundaryEntry> boundaries) {
  const uint64_t old = rcv_nxt_;
  assert(end_offset > old);
  rcvq_.Append(end_offset - old);
  int64_t delivered_syscalls = 0;
  for (BoundaryEntry& b : boundaries) {
    if (b.end_offset > old && b.end_offset <= end_offset) {
      if (b.record.syscall_end) {
        unacked_rx_boundaries_.push_back(b.end_offset);
        ++delivered_syscalls;
      }
      rcvq_.AddBoundary(b.end_offset, std::move(b.record));
    }
  }
  const int64_t bytes = static_cast<int64_t>(end_offset - old);
  const int64_t pkts = PacketUnits(old, end_offset);
  TrackThree(QueueKind::kUnread, bytes, pkts, delivered_syscalls);
  TrackThree(QueueKind::kAckDelay, bytes, pkts, delivered_syscalls);
  rcv_nxt_ = end_offset;
  stats_.bytes_received += end_offset - old;
}

void TcpEndpoint::MaybeAckOnReceive() {
  const uint64_t unacked_rx = rcv_nxt_ - rcv_wup_;
  if (unacked_rx >= static_cast<uint64_t>(config_.delack_segments) * config_.mss) {
    SubmitPush(&host_->softirq_core(), PushReason::kImmediateAck);
  } else if (unacked_rx > 0) {
    ArmDelackTimer();
  }
}

void TcpEndpoint::OnAckSent(uint64_t acked_to) {
  if (acked_to <= rcv_wup_) {
    return;
  }
  const int64_t bytes = static_cast<int64_t>(acked_to - rcv_wup_);
  const int64_t pkts = PacketUnits(rcv_wup_, acked_to);
  int64_t boundaries = 0;
  while (!unacked_rx_boundaries_.empty() && unacked_rx_boundaries_.front() <= acked_to) {
    unacked_rx_boundaries_.pop_front();
    ++boundaries;
  }
  TrackThree(QueueKind::kAckDelay, -bytes, -pkts, -boundaries);
  rcv_wup_ = acked_to;
  CancelTimer(delack_timer_);
}

// ---------------------------------------------------------------------------
// Timers.
// ---------------------------------------------------------------------------

void TcpEndpoint::CancelTimer(EventId& id) {
  if (id != kInvalidEventId) {
    sim_->Cancel(id);
    id = kInvalidEventId;
  }
}

template <typename Fn>
void TcpEndpoint::ArmOnce(EventId& timer, Duration delay, Fn fire) {
  if (timer == kInvalidEventId) {
    timer = sim_->Schedule(delay, [&timer, fire] {
      timer = kInvalidEventId;
      fire();
    });
  }
}

void TcpEndpoint::ArmDelackTimer() {
  ArmOnce(delack_timer_, config_.delack_timeout, [this] {
    ++stats_.delack_timer_fires;
    SubmitPush(&host_->softirq_core(), PushReason::kDelackTimer);
  });
}

void TcpEndpoint::ArmNagleTimer() {
  ArmOnce(nagle_timer_, config_.nagle_timeout, [this] {
    ++stats_.nagle_timer_fires;
    SubmitPush(&host_->softirq_core(), PushReason::kNagleTimer);
  });
}

void TcpEndpoint::ArmPersistTimer() {
  // Persist probes carry their own exponential backoff (RFC 1122 wants the
  // interval bounded, not the instantaneous RTO): each unanswered probe
  // doubles the interval up to persist_max_interval; a reopened window
  // resets it (ProcessAck).
  Duration interval = rtt_.rto();
  for (int i = 0; i < persist_backoff_shift_ && interval < config_.persist_max_interval; ++i) {
    interval = interval * 2;
  }
  interval = std::min(interval, config_.persist_max_interval);
  ArmOnce(persist_timer_, interval, [this] {
    if (dead_) {
      return;
    }
    const uint64_t pending = sndq_.tail_offset() - snd_nxt_;
    const uint64_t in_flight = snd_nxt_ - sndq_.head_offset();
    if (pending == 0 || in_flight > 0 || peer_rwnd_ >= config_.mss) {
      return;  // Recovered in the meantime; normal paths take over.
    }
    ++stats_.persist_probes;
    if (persist_backoff_shift_ < 24) {
      ++persist_backoff_shift_;
      ++stats_.persist_backoffs;
    }
    // Window probe: one byte past the advertised window. The receiver's
    // (possibly duplicate) ack carries its current window. Both halves of
    // the CPU work may run after CloseEndpoint parks this endpoint in the
    // graveyard (already-queued work items keep running), so each re-checks
    // dead_ before touching send state or the NIC.
    CpuCore* core = &host_->softirq_core();
    core->Submit(
        [this, core]() -> Duration {
          if (dead_) {
            return Duration::Zero();
          }
          return PlanProbe(core, BuildDataPacket(1));
        },
        [this, core] { TransmitProbe(core); });
    ArmPersistTimer();  // Keep probing on the backed-off schedule.
  });
}

void TcpEndpoint::ArmRtoTimer() {
  // The policy may ask for a tail-loss probe ahead of the RTO (RACK-TLP).
  const std::optional<Duration> pto = recovery_->ProbeTimeout(flight_bytes(), rtt_);
  const bool is_tlp = pto.has_value();
  ArmOnce(rto_timer_, pto.value_or(rtt_.rto()), [this, is_tlp] {
    if (is_tlp) {
      OnTlpFire();
    } else {
      OnRtoFire();
    }
  });
}

void TcpEndpoint::OnTlpFire() {
  if (dead_ || snd_nxt_ == sndq_.head_offset()) {
    return;  // Everything got acked in the meantime.
  }
  const std::optional<SeqRange> tail = recovery_->OnProbe();
  ++stats_.tlp_probes;
  // RFC 8985: probe with new data when some exists and fits the window
  // (it doubles as useful transmission); otherwise re-send the tail
  // segment the policy names.
  const uint64_t pending = sndq_.tail_offset() - snd_nxt_;
  const uint64_t window = std::min(peer_rwnd_, cc_->window_bytes());
  if (pending > 0 && PipeBytes() + std::min<uint64_t>(pending, config_.mss) <= window) {
    SubmitPush(&host_->softirq_core(), PushReason::kAckAdvance);
  } else if (tail.has_value()) {
    timed_end_.reset();  // Karn: the probe is a retransmission.
    CpuCore* core = &host_->softirq_core();
    core->Submit(
        [this, core, seg = *tail]() -> Duration {
          if (dead_ || seg.start < sndq_.head_offset() || seg.end > snd_nxt_) {
            return Duration::Zero();  // Acked while the work was queued.
          }
          const uint64_t len = seg.end - seg.start;
          return PlanProbe(core, BuildPacketFor(seg.start, len, /*is_retransmit=*/true));
        },
        [this, core] { TransmitProbe(core); });
  }
  ArmRtoTimer();
}

void TcpEndpoint::OnRtoFire() {
  if (dead_ || snd_nxt_ == sndq_.head_offset()) {
    return;  // Closed, or everything got acked in the meantime.
  }
  ++stats_.rto_fires;
  rtt_.Backoff();
  cc_->OnRto();
  if (config_.cc.ecn) {
    cwr_pending_ = true;
  }
  ++consecutive_rtos_;
  if (config_.rto_give_up > 0 && consecutive_rtos_ >= config_.rto_give_up) {
    DeclareDeadPeer("rto");
    if (dead_) {
      // The dead-peer callback may close this endpoint synchronously
      // (TcpStack::CloseEndpoint -> Shutdown). Continuing would mutate a
      // zombie's scoreboard, queue CPU work for it, and re-arm the RTO
      // timer Shutdown just canceled.
      return;
    }
  }
  timed_end_.reset();  // Karn's rule: the timed range is being resent.
  if (recovery_->OnRto(snd_nxt_, sim_->Now())) {
    // Go-back-N: segments below the recovery point go out marked as
    // retransmissions.
    snd_nxt_ = sndq_.head_offset();
  }
  SubmitPush(&host_->softirq_core(), PushReason::kAckAdvance);
  ArmRtoTimer();
}

void TcpEndpoint::SubmitRetransmit() {
  timed_end_.reset();  // Karn's rule: no sample across a retransmission.
  CpuCore* core = &host_->softirq_core();
  core->Submit(
      [this, core]() -> Duration {
        if (dead_ || snd_nxt_ == sndq_.head_offset()) {
          return Duration::Zero();
        }
        return PlanProbe(core, BuildRetransmit());
      },
      [this, core] { TransmitPlanned(core); });
}

void TcpEndpoint::Apply(const RecoveryAction& action) {
  if (action.repair_head) {
    SubmitRetransmit();
  }
  if (action.loss_event) {
    // One window reduction per loss event. CWR is set after the repair is
    // submitted: a retransmission planned at once goes out without it
    // (RFC 3168 §6.1.2 announces the reduction on new data).
    cc_->OnDupAckThreshold();
    if (config_.cc.ecn) {
      cwr_pending_ = true;
    }
  }
  if (action.recheck.has_value()) {
    ArmRecheckTimer(*action.recheck);
  }
}

void TcpEndpoint::ArmRecheckTimer(Duration delay) {
  // A pending check re-evaluates and re-arms as needed.
  ArmOnce(recheck_timer_, delay, [this] {
    if (dead_) {
      return;
    }
    Apply(recovery_->DetectLosses(snd_nxt_, rtt_, sim_->Now()));
    if (recovery_->has_lost()) {
      SubmitPush(&host_->softirq_core(), PushReason::kAckAdvance);
    }
  });
}

Duration TcpEndpoint::PlanProbe(CpuCore* core, PlannedPacket packet) {
  std::vector<PlannedPacket>& planned = PlannedOn(core);
  assert(planned.empty());
  const Duration cost = packet.cost + costs_->doorbell;
  planned.push_back(std::move(packet));
  return cost;
}

void TcpEndpoint::TransmitProbe(CpuCore* core) {
  if (dead_) {
    PlannedOn(core).clear();  // Closed while the work ran: drop the probe.
  } else {
    TransmitPlanned(core);
  }
}

// ---------------------------------------------------------------------------
// Timestamps, SACK generation, dead-peer machinery.
// ---------------------------------------------------------------------------

uint32_t TcpEndpoint::TsClockNow() const {
  // Microsecond clock, offset by one so a valid TSval/TSecr is never 0
  // (0 marks "no echo yet"). The +1 cancels in sender-side deltas.
  return static_cast<uint32_t>(sim_->Now().nanos() / 1000 + 1);
}

std::vector<SackBlock> TcpEndpoint::BuildSackBlocks() const {
  std::vector<SackBlock> blocks;
  if (!config_.features.sack || ooo_.empty()) {
    return blocks;
  }
  // Merge the stash into maximal contiguous ranges (ascending).
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  for (const auto& [start, seg] : ooo_) {
    const uint64_t end = start + seg.len;
    if (!ranges.empty() && start <= ranges.back().second) {
      ranges.back().second = std::max(ranges.back().second, end);
    } else {
      ranges.emplace_back(start, end);
    }
  }
  // RFC 2018: the block containing the most recent arrival goes first (it
  // is the one the sender has not seen yet); the rest follow in order and
  // the arbiter trims from the tail.
  size_t freshest = 0;
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (last_ooo_arrival_ >= ranges[i].first && last_ooo_arrival_ < ranges[i].second) {
      freshest = i;
      break;
    }
  }
  blocks.reserve(std::min(ranges.size(), kMaxSackBlocks));
  blocks.push_back(SackBlock{WrapSeq(ranges[freshest].first), WrapSeq(ranges[freshest].second)});
  for (size_t i = 0; i < ranges.size() && blocks.size() < kMaxSackBlocks; ++i) {
    if (i == freshest) {
      continue;
    }
    blocks.push_back(SackBlock{WrapSeq(ranges[i].first), WrapSeq(ranges[i].second)});
  }
  return blocks;
}

void TcpEndpoint::ArmKeepaliveTimer(Duration delay) {
  ArmOnce(keepalive_timer_, delay, [this] { OnKeepaliveFire(); });
}

void TcpEndpoint::OnKeepaliveFire() {
  if (dead_ || dead_peer_declared_) {
    return;
  }
  const Duration idle_for = sim_->Now() - last_rx_;
  if (idle_for < config_.keepalive.idle) {
    ArmKeepaliveTimer(config_.keepalive.idle - idle_for);
    return;
  }
  if (keepalive_unanswered_ >= config_.keepalive.probes) {
    DeclareDeadPeer("keepalive");  // R2: the probe budget ran out.
    return;
  }
  if (snd_nxt_ > sndq_.head_offset()) {
    // Data in flight: the RTO/R2 machinery owns liveness; check back.
    ArmKeepaliveTimer(config_.keepalive.interval);
    return;
  }
  ++keepalive_unanswered_;
  ++stats_.keepalive_probes;
  // Probe below the window (seq = snd_nxt - 1, zero length): the peer
  // answers any such segment with a duplicate ack. With nothing ever sent
  // the subtraction underflows and WrapSeq lands on 0xFFFFFFFF — still one
  // below the peer's rcv_nxt in wire space, so pure receivers can probe too.
  const uint64_t probe_seq = snd_nxt_ - 1;
  // Like the persist probe, the queued CPU work may outlive the endpoint's
  // close (graveyard): re-check dead_ in both halves.
  CpuCore* core = &host_->softirq_core();
  core->Submit(
      [this, core, probe_seq]() -> Duration {
        if (dead_) {
          return Duration::Zero();
        }
        return PlanProbe(core, BuildPureAck(false, probe_seq));
      },
      [this, core] { TransmitProbe(core); });
  ArmKeepaliveTimer(config_.keepalive.interval);
}

void TcpEndpoint::DeclareDeadPeer(const char* reason) {
  if (dead_peer_declared_) {
    return;
  }
  dead_peer_declared_ = true;
  ++stats_.dead_peer_declarations;
  if (TraceRecorder* tr = TraceIf(TraceCategory::kEstimator)) {
    TraceEvent e = TraceOn(tr, TraceCategory::kEstimator, "dead_peer");
    tr->Record(e);
  }
  if (dead_peer_cb_) {
    dead_peer_cb_(reason);
  }
}

void TcpEndpoint::ScheduleExchangeTimer() {
  exchange_timer_ = sim_->Schedule(config_.e2e_exchange_interval, [this] { OnExchangeTimer(); });
}

void TcpEndpoint::OnExchangeTimer() {
  const Duration since = sim_->Now() - last_exchange_sent_;
  if (since < kIdleExchangeRefresh && ExchangeQuiet()) {
    // Queue states are cumulative, so the first exchange after the silence
    // covers the whole gap exactly; until then there is nothing to send.
    exchange_parked_ = true;
    exchange_timer_ =
        sim_->Schedule(kIdleExchangeRefresh - since, [this] { OnExchangeTimer(); });
    return;
  }
  exchange_parked_ = false;
  if (since >= config_.e2e_exchange_interval) {
    SubmitPush(&host_->softirq_core(), PushReason::kExchangeTimer);
  }
  ScheduleExchangeTimer();
}

void TcpEndpoint::ResumeExchangeTimer() {
  exchange_parked_ = false;
  CancelTimer(exchange_timer_);
  ScheduleExchangeTimer();
}

bool TcpEndpoint::LocallyIdle() const {
  for (const QueueKind kind : {QueueKind::kUnacked, QueueKind::kUnread, QueueKind::kAckDelay}) {
    if (queues_.Get(kind, config_.e2e_mode).size() != 0) {
      return false;
    }
  }
  return ooo_.empty() && (hint_tracker_ == nullptr || hint_tracker_->outstanding() == 0);
}

bool TcpEndpoint::ExchangeQuiet() const {
  // Hint Create/Complete calls ride on the send/recv calls that set
  // tracked_since_exchange_. last_exchange_quiet_ shows the peer a whole
  // quiet interval, which its own PeerQuiet() waits for. Without
  // PeerQuiet() a receiver with nothing of its own would go silent while
  // the sender waits on a lost tail: its exchange pure acks are the
  // duplicate acks that repair it long before the RTO (DESIGN.md §6).
  return !tracked_since_exchange_ && last_exchange_quiet_ && LocallyIdle() &&
         estimator_.PeerQuiet();
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

uint64_t TcpEndpoint::AdvertisedWindow() const {
  const uint64_t used = rcvq_.size_bytes() + ooo_bytes_;
  const uint64_t free = config_.rcvbuf_bytes > used ? config_.rcvbuf_bytes - used : 0;
  // Receiver-side silly-window avoidance (RFC 1122): advertise zero until a
  // meaningful window (min(MSS, buffer/2)) is available, so the sender
  // never dribbles tiny segments into a tiny window.
  const uint64_t sws = std::min<uint64_t>(config_.mss, config_.rcvbuf_bytes / 2);
  return free >= sws ? free : 0;
}

int64_t TcpEndpoint::PacketUnits(uint64_t from, uint64_t to) const {
  return static_cast<int64_t>(to / config_.mss) - static_cast<int64_t>(from / config_.mss);
}

void TcpEndpoint::TrackThree(QueueKind kind, int64_t bytes, int64_t packets, int64_t syscalls) {
  const TimePoint now = sim_->Now();
  tracked_since_exchange_ = true;
  if (exchange_parked_) {
    ResumeExchangeTimer();
  }
  queues_.Track(kind, UnitMode::kBytes, now, bytes);
  queues_.Track(kind, UnitMode::kPackets, now, packets);
  queues_.Track(kind, UnitMode::kSyscalls, now, syscalls);
  if (TraceRecorder* tr = TraceIf(TraceCategory::kQueue)) {
    // One event per Track call (all three unit modes share it): the byte
    // delta plus the queue's new size in bytes, on this endpoint's track.
    TraceEvent e = TraceOn(tr, TraceCategory::kQueue, QueueKindName(kind));
    e.k1 = "delta_bytes";
    e.v1 = static_cast<double>(bytes);
    e.k2 = "size_bytes";
    e.v2 = static_cast<double>(queues_.Get(kind, UnitMode::kBytes).size());
    e.k3 = "size_syscalls";
    e.v3 = static_cast<double>(queues_.Get(kind, UnitMode::kSyscalls).size());
    tr->Record(e);
  }
}

TraceEvent TcpEndpoint::TraceOn(TraceRecorder* tr, TraceCategory category,
                                const char* name) const {
  char track[32];
  std::snprintf(track, sizeof(track), "conn%llu/%s", static_cast<unsigned long long>(conn_id_),
                is_a_ ? "client" : "server");
  TraceEvent e;
  e.time = sim_->Now();
  e.category = category;
  e.name = name;
  e.track = tr->Track(track);
  return e;
}

}  // namespace e2e
