#include "src/tcp/loss_recovery.h"

#include <algorithm>

#include "src/tcp/sequence.h"

namespace e2e {

bool LossRecovery::OnRto(uint64_t snd_nxt, TimePoint now) {
  // Everything in flight is suspect: the endpoint rewinds and its
  // cwnd-gated path resends the tail in slow start (pre-SACK BSD), so a
  // long drop run (the slow-start overshoot signature) repairs in log time.
  Enter(snd_nxt, now, /*by_rto=*/true);
  return true;
}

bool LossRecovery::Enter(uint64_t snd_nxt, TimePoint now, bool by_rto) {
  const bool fresh = !in_recovery_;
  if (fresh) {
    in_recovery_ = true;
    started_at_ = now;
    ++stats_.recovery_events;
  } else if (!by_rto) {
    return false;
  }
  rto_recovery_ = by_rto;
  recovery_point_ = snd_nxt;
  return fresh;
}

bool LossRecovery::AckEpisode(uint64_t ack, TimePoint now) {
  if (!in_recovery_ || ack < recovery_point_) {
    return in_recovery_;
  }
  in_recovery_ = false;
  rto_recovery_ = false;
  stats_.recovery_us_total += static_cast<uint64_t>((now - started_at_).nanos() / 1000);
  return false;
}

// ---- NewReno (RFC 6582) ----

RecoveryAction NewRenoRecovery::OnCumAck(uint64_t ack, TimePoint now) {
  dup_acks_ = 0;
  RecoveryAction action;
  // A partial ack exposes exactly one more hole at the new head: repair it
  // now, one hole per RTT, rather than strand a burst loss until the RTO.
  // After an RTO the rewound send path already resends it.
  action.repair_head = AckEpisode(ack, now) && !rto_recovery();
  return action;
}

RecoveryAction NewRenoRecovery::OnDupAck(uint64_t snd_nxt, TimePoint now) {
  RecoveryAction action;
  ++dup_acks_;
  if (dup_acks_ == 3 && Enter(snd_nxt, now, /*by_rto=*/false)) {
    action.loss_event = true;  // Fast retransmit (RFC 5681).
    action.repair_head = true;
  } else if (dup_acks_ % 3 == 0 && in_recovery() && !rto_recovery()) {
    // Dup acks with no progress: the repair itself was lost (an incast
    // port drops the burst it rides in). Resend the head, without a second
    // reduction, or idle until an RTO that is centuries long on this RTT
    // scale. One MSS per three dup acks is ack-clocked and cannot burst.
    action.repair_head = true;
  }
  return action;
}

// ---- SACK scoreboard (RFC 6675) ----

void SackRecovery::OnSent(uint64_t start, uint64_t end, bool is_retransmit, TimePoint now) {
  SentSeg& entry = scoreboard_[start];
  if (entry.end != end) {
    entry = SentSeg{};
    entry.end = end;
  } else if (entry.lost) {
    // A repair: back in the pipe, and RACK may condemn it again.
    entry.lost = false;
    lost_bytes_ -= end - start;
  }
  entry.sent_at = now;
  entry.sack_floor = std::max(end, highest_sacked_);
  entry.retransmitted = entry.retransmitted || is_retransmit;
}

void SackRecovery::Delivered(const SentSeg& entry) {
  // A delivered original advances the frontier: anything sent
  // reorder-window-earlier and still undelivered is presumed lost.
  if (!entry.retransmitted) {
    rack_time_ = std::max(rack_time_, entry.sent_at);
    rack_end_ = std::max(rack_end_, entry.end);
  }
}

bool SackRecovery::OnSackBlocks(const std::vector<SackBlock>& blocks, uint64_t una) {
  bool newly_sacked = false;
  for (const SackBlock& block : blocks) {
    const uint64_t start = UnwrapSeq(block.start, una);
    const uint64_t end = start + static_cast<uint32_t>(block.end - block.start);
    // Entries mirror the wire segments the blocks were built from; one only
    // partly covered (a stale block after resegmenting) stays unsacked.
    for (auto it = scoreboard_.lower_bound(start); it != scoreboard_.end() && it->first < end;
         ++it) {
      SentSeg& entry = it->second;
      if (entry.sacked || entry.end > end) {
        continue;
      }
      entry.sacked = true;
      sacked_bytes_ += entry.end - it->first;
      highest_sacked_ = std::max(highest_sacked_, entry.end);
      if (entry.lost) {  // Marked too early: it arrived after all.
        entry.lost = false;
        lost_bytes_ -= entry.end - it->first;
        ++stats_.spurious_loss_reverts;
      }
      Delivered(entry);
      newly_sacked = true;
    }
  }
  return newly_sacked;
}

RecoveryAction SackRecovery::OnCumAck(uint64_t ack, TimePoint now) {
  // Trim below the ack. Originals delivered in order advance the frontier
  // like sacked ones; an entry straddling the ack keeps its remainder.
  auto it = scoreboard_.begin();
  while (it != scoreboard_.end() && it->first < ack) {
    const SentSeg entry = it->second;
    const uint64_t covered = std::min(entry.end, ack) - it->first;
    if (entry.sacked) {
      sacked_bytes_ -= covered;
    } else {
      Delivered(entry);
    }
    if (entry.lost) {
      lost_bytes_ -= covered;
    }
    it = scoreboard_.erase(it);
    if (entry.end > ack) {
      scoreboard_[ack] = entry;
      break;
    }
  }
  AckEpisode(ack, now);  // Holes are repaired from the scoreboard.
  return {};
}

RecoveryAction SackRecovery::DetectLosses(uint64_t snd_nxt, const RttEstimator& rtt,
                                          TimePoint now) {
  RecoveryAction action;
  if (!scoreboard_.empty() && rack_end_ != 0 && MarkLosses(rtt, now, action)) {
    action.loss_event = Enter(snd_nxt, now, /*by_rto=*/false);
  }
  return action;
}

bool SackRecovery::MarkLosses(const RttEstimator& rtt, TimePoint now,
                              RecoveryAction& /*action*/) {
  // The dupthresh analogue: lost once 3 MSS are sacked above the segment's
  // floor, so a lost repair is condemned again only by evidence newer than
  // it (an `end`-based rule would stall on re-lost repairs until the RTO).
  // A repair also waits out one SRTT: its sack cannot be back sooner.
  const Duration rexmit_guard = rtt.srtt().value_or(rtt.rto());
  bool newly_lost = false;
  for (auto& [start, entry] : scoreboard_) {
    if (entry.sacked || entry.lost ||
        (entry.retransmitted && now - entry.sent_at < rexmit_guard)) {
      continue;
    }
    if (entry.sack_floor + 3 * static_cast<uint64_t>(mss_) <= highest_sacked_) {
      MarkLost(start, entry);
      newly_lost = true;
    }
  }
  return newly_lost;
}

bool SackRecovery::OnRto(uint64_t snd_nxt, TimePoint now) {
  Enter(snd_nxt, now, /*by_rto=*/true);
  // Keep what the receiver holds: everything undelivered is lost and is
  // repaired hole by hole in slow start, with no rewind.
  for (auto& [start, entry] : scoreboard_) {
    if (!entry.sacked && !entry.lost) {
      MarkLost(start, entry);
    }
  }
  return false;
}

uint64_t SackRecovery::InFlight(uint64_t una, uint64_t snd_nxt) const {
  // The pipe: sacked and lost bytes no longer occupy the network.
  const uint64_t gone = sacked_bytes_ + lost_bytes_;
  return snd_nxt - una > gone ? snd_nxt - una - gone : 0;
}

std::optional<SeqRange> SackRecovery::NextRepair(uint64_t from) const {
  for (auto it = scoreboard_.lower_bound(from); lost_bytes_ > 0 && it != scoreboard_.end();
       ++it) {
    if (it->second.lost) {
      return SeqRange{it->first, it->second.end};
    }
  }
  return std::nullopt;
}

// ---- RACK-TLP (RFC 8985, simplified) ----

bool RackRecovery::MarkLosses(const RttEstimator& rtt, TimePoint now, RecoveryAction& action) {
  // A segment sent before one since delivered is lost once outstanding for
  // the RTT plus a reordering window of min_rtt/4; younger ones get a
  // re-check, so reordering that never resolves is caught without an ack.
  const Duration window = rtt.min_rtt().has_value() ? *rtt.min_rtt() / 4 : Duration::Millis(1);
  const Duration timeout = rtt.srtt().value_or(rtt.rto()) + window;
  Duration min_remaining = Duration::Max();
  bool newly_lost = false;
  for (auto& [start, entry] : scoreboard_) {
    const bool sent_before_delivered =
        entry.sent_at < rack_time_ || (entry.sent_at == rack_time_ && entry.end <= rack_end_);
    if (entry.sacked || entry.lost || !sent_before_delivered) {
      continue;
    }
    const Duration waited = now - entry.sent_at;
    if (waited >= timeout) {
      MarkLost(start, entry);
      ++stats_.rack_marked_lost;
      newly_lost = true;
    } else {
      min_remaining = std::min(min_remaining, timeout - waited);
    }
  }
  if (min_remaining < Duration::Max()) {
    action.recheck = min_remaining;
  }
  return newly_lost;
}

std::optional<SeqRange> RackRecovery::OnProbe() {
  tlp_out_ = true;  // The next timer is a real RTO.
  if (scoreboard_.empty()) {
    return std::nullopt;
  }
  // The tail's (S)ACK exposes what the scoreboard is missing.
  const auto tail = scoreboard_.rbegin();
  return SeqRange{tail->first, tail->second.end};
}

std::optional<Duration> RackRecovery::ProbeTimeout(uint64_t flight,
                                                   const RttEstimator& rtt) const {
  // PTO = 2*SRTT, plus the peer's worst-case delayed ack when the flight
  // is too small to draw an immediate ack (RFC 8985 §7.3).
  if (in_recovery() || tlp_out_ || lost_bytes_ > 0 || !rtt.srtt().has_value()) {
    return std::nullopt;
  }
  Duration pto = *rtt.srtt() * 2;
  if (flight < 2 * static_cast<uint64_t>(mss_)) {
    pto += delack_timeout_ + Duration::Millis(2);
  }
  return pto < rtt.rto() ? std::optional<Duration>(pto) : std::nullopt;
}

std::unique_ptr<LossRecovery> MakeLossRecovery(const TcpConfig& config) {
  if (!config.features.sack) {
    return std::make_unique<NewRenoRecovery>();
  }
  if (config.features.rack) {
    return std::make_unique<RackRecovery>(config.mss, config.delack_timeout);
  }
  return std::make_unique<SackRecovery>(config.mss);
}

}  // namespace e2e
