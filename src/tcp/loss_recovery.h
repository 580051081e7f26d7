// Loss recovery (DESIGN.md §15): how a sender finds and repairs the holes
// in what it sent. `LossRecovery` is to recovery what the cc algorithms
// (src/tcp/cc) are to the window. The base owns the episode: entered once
// per loss event, left on the ack covering all sent before it, counted, and
// read through `in_recovery()` by the §14 diagnoser's ground truth. The
// policies, NewReno (RFC 6582), SACK (RFC 6675) and RACK-TLP (RFC 8985), are
// pure: they take sends, acks, SACK blocks and timer fires with `now`, and
// answer what to retransmit, how much is in flight and when to check again.
// The endpoint keeps every timer, CPU work item and packet builder.

#ifndef SRC_TCP_LOSS_RECOVERY_H_
#define SRC_TCP_LOSS_RECOVERY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/sim/time.h"
#include "src/tcp/rtt.h"
#include "src/tcp/segment.h"
#include "src/tcp/tcp_config.h"

namespace e2e {

// A half-open range [start, end) of absolute stream offsets.
struct SeqRange {
  uint64_t start = 0;
  uint64_t end = 0;
};

// Counters a recovery policy keeps (TcpEndpoint::Stats reports them).
struct RecoveryStats {
  uint64_t rack_marked_lost = 0;       // Segments the reordering window condemned.
  uint64_t spurious_loss_reverts = 0;  // Lost-marked segments later sacked.
  uint64_t recovery_events = 0;        // Loss-recovery episodes entered.
  uint64_t recovery_us_total = 0;      // Time spent inside recovery episodes.
};

// What the endpoint does after an event.
struct RecoveryAction {
  bool loss_event = false;          // A new episode began: reduce the window once.
  bool repair_head = false;         // Retransmit one MSS at snd_una now.
  std::optional<Duration> recheck;  // Run DetectLosses again after this delay.
};

class LossRecovery {
 public:
  virtual ~LossRecovery() = default;

  // ---- Events ----

  // One wire segment [start, end) left (each slice of a TSO super-segment).
  virtual void OnSent(uint64_t /*start*/, uint64_t /*end*/, bool /*is_retransmit*/,
                      TimePoint /*now*/) {}
  // An ack's SACK blocks, before its cumulative part; `una` unwraps them.
  // Returns true if anything was newly sacked.
  virtual bool OnSackBlocks(const std::vector<SackBlock>& /*blocks*/, uint64_t /*una*/) {
    return false;
  }
  // The cumulative ack advanced to `ack`. A full ack ends the episode.
  virtual RecoveryAction OnCumAck(uint64_t ack, TimePoint now) = 0;
  // A duplicate ack (RFC 5681) with data outstanding up to `snd_nxt`.
  virtual RecoveryAction OnDupAck(uint64_t /*snd_nxt*/, TimePoint /*now*/) { return {}; }
  // Re-examines the outstanding data after new delivery evidence or a
  // re-check delay.
  virtual RecoveryAction DetectLosses(uint64_t /*snd_nxt*/, const RttEstimator& /*rtt*/,
                                      TimePoint /*now*/) {
    return {};
  }
  // A retransmission timeout fired. Returns true when the endpoint must
  // rewind snd_nxt to snd_una (go-back-N).
  virtual bool OnRto(uint64_t snd_nxt, TimePoint now);
  // The tail-loss probe fired: the segment to re-send if no new data goes.
  virtual std::optional<SeqRange> OnProbe() { return std::nullopt; }

  // ---- Answers ----

  // Bytes counted against the window with [una, snd_nxt) outstanding.
  virtual uint64_t InFlight(uint64_t una, uint64_t snd_nxt) const { return snd_nxt - una; }
  // The first segment at or after `from` marked lost and not yet resent.
  virtual std::optional<SeqRange> NextRepair(uint64_t /*from*/) const { return std::nullopt; }
  virtual bool has_lost() const { return false; }
  // The tail-loss probe timeout to arm instead of the RTO, if any.
  virtual std::optional<Duration> ProbeTimeout(uint64_t /*flight*/,
                                               const RttEstimator& /*rtt*/) const {
    return std::nullopt;
  }

  bool in_recovery() const { return in_recovery_; }
  // A segment from `start` re-covers space the episode already sent (after
  // an RTO rewind): it is a retransmission.
  bool Resends(uint64_t start) const { return in_recovery_ && start < recovery_point_; }
  const RecoveryStats& stats() const { return stats_; }

 protected:
  // The one episode entry. A loss event opens an episode only outside one
  // (RFC 6582: one reduction per event); an RTO also takes over a running
  // one. Returns true if an episode began.
  bool Enter(uint64_t snd_nxt, TimePoint now, bool by_rto);
  // Ends the episode on a full ack; returns true on a partial ack.
  bool AckEpisode(uint64_t ack, TimePoint now);
  bool rto_recovery() const { return rto_recovery_; }

  RecoveryStats stats_;

 private:
  uint64_t recovery_point_ = 0;  // snd_nxt when the episode began.
  TimePoint started_at_;
  bool in_recovery_ = false;
  bool rto_recovery_ = false;  // The episode is an RTO's.
};

class NewRenoRecovery : public LossRecovery {
 public:
  RecoveryAction OnCumAck(uint64_t ack, TimePoint now) override;
  RecoveryAction OnDupAck(uint64_t snd_nxt, TimePoint now) override;

 private:
  uint32_t dup_acks_ = 0;  // Consecutive duplicate acks seen.
};

class SackRecovery : public LossRecovery {
 public:
  explicit SackRecovery(uint32_t mss) : mss_(mss) {}

  void OnSent(uint64_t start, uint64_t end, bool is_retransmit, TimePoint now) override;
  bool OnSackBlocks(const std::vector<SackBlock>& blocks, uint64_t una) override;
  RecoveryAction OnCumAck(uint64_t ack, TimePoint now) override;
  RecoveryAction DetectLosses(uint64_t snd_nxt, const RttEstimator& rtt, TimePoint now) override;
  bool OnRto(uint64_t snd_nxt, TimePoint now) override;
  uint64_t InFlight(uint64_t una, uint64_t snd_nxt) const override;
  std::optional<SeqRange> NextRepair(uint64_t from) const override;
  bool has_lost() const override { return lost_bytes_ > 0; }

 protected:
  // One entry per wire segment still outstanding, keyed by start offset;
  // cumulative acks trim and split entries.
  struct SentSeg {
    uint64_t end = 0;
    TimePoint sent_at;  // Most recent (re)transmission time.
    // Sack high-water mark at the last (re)transmission: the 3-MSS rule
    // needs sack evidence newer than the send it judges, or a freshly
    // retransmitted hole re-marks itself at once.
    uint64_t sack_floor = 0;
    bool retransmitted = false;
    bool sacked = false;
    bool lost = false;  // Marked lost and not yet retransmitted.
  };

  // Marks segments lost; returns true if any was. May ask for a re-check.
  virtual bool MarkLosses(const RttEstimator& rtt, TimePoint now, RecoveryAction& action);
  void MarkLost(uint64_t start, SentSeg& entry) {
    entry.lost = true;
    lost_bytes_ += entry.end - start;
  }

  uint32_t mss_;
  std::map<uint64_t, SentSeg> scoreboard_;
  uint64_t sacked_bytes_ = 0;
  uint64_t lost_bytes_ = 0;
  uint64_t highest_sacked_ = 0;  // Highest sacked end offset.
  // Send time and end of the latest delivered segment never retransmitted:
  // RACK's delivery frontier. rack_end_ == 0: no evidence to mark from.
  TimePoint rack_time_;
  uint64_t rack_end_ = 0;

 private:
  void Delivered(const SentSeg& entry);  // Advances the frontier.
};

class RackRecovery : public SackRecovery {
 public:
  RackRecovery(uint32_t mss, Duration delack_timeout)
      : SackRecovery(mss), delack_timeout_(delack_timeout) {}

  RecoveryAction OnCumAck(uint64_t ack, TimePoint now) override {
    tlp_out_ = false;  // Forward progress starts a fresh flight.
    return SackRecovery::OnCumAck(ack, now);
  }
  std::optional<SeqRange> OnProbe() override;
  std::optional<Duration> ProbeTimeout(uint64_t flight, const RttEstimator& rtt) const override;

 protected:
  bool MarkLosses(const RttEstimator& rtt, TimePoint now, RecoveryAction& action) override;

 private:
  Duration delack_timeout_;  // The peer's worst-case ack delay.
  bool tlp_out_ = false;     // One tail-loss probe per flight.
};

// RACK needs SACK's scoreboard, so `rack` without `sack` is NewReno.
std::unique_ptr<LossRecovery> MakeLossRecovery(const TcpConfig& config);

}  // namespace e2e

#endif  // SRC_TCP_LOSS_RECOVERY_H_
