// The three loss-recovery policies (src/tcp/loss_recovery.h), driven
// through the LossRecovery interface alone: no endpoint, no simulator.
// Each case pins one rule of RFC 6582 NewReno, the RFC 6675 scoreboard or
// RFC 8985 RACK-TLP with hand-made sends, acks, SACK blocks and clocks.

#include <gtest/gtest.h>

#include <vector>

#include "src/tcp/loss_recovery.h"
#include "src/tcp/sequence.h"

namespace e2e {
namespace {

constexpr uint32_t kMss = 1000;

TimePoint At(double ms) {
  return TimePoint::Zero() + Duration::Micros(static_cast<int64_t>(ms * 1000));
}

std::vector<SackBlock> Sack(uint64_t start, uint64_t end) {
  return {SackBlock{WrapSeq(start), WrapSeq(end)}};
}

// Sends `count` MSS segments back to back from `start` at `now`.
void SendRun(LossRecovery& r, uint64_t start, int count, TimePoint now) {
  for (int i = 0; i < count; ++i) {
    r.OnSent(start + i * kMss, start + (i + 1) * kMss, /*is_retransmit=*/false, now);
  }
}

RttEstimator RttOf(Duration sample, int samples = 1) {
  RttEstimator rtt;
  for (int i = 0; i < samples; ++i) {
    rtt.AddSample(sample);
  }
  return rtt;
}

TcpConfig FeatureConfig(bool sack, bool rack) {
  TcpConfig config;
  config.mss = kMss;
  config.features.sack = sack;
  config.features.rack = rack;
  return config;
}

TEST(LossRecoveryFactory, FeaturesSelectThePolicy) {
  EXPECT_NE(dynamic_cast<NewRenoRecovery*>(MakeLossRecovery(FeatureConfig(false, false)).get()),
            nullptr);
  // RACK reasons over the SACK scoreboard: without it, it is cumack.
  EXPECT_NE(dynamic_cast<NewRenoRecovery*>(MakeLossRecovery(FeatureConfig(false, true)).get()),
            nullptr);
  auto sack = MakeLossRecovery(FeatureConfig(true, false));
  EXPECT_NE(dynamic_cast<SackRecovery*>(sack.get()), nullptr);
  EXPECT_EQ(dynamic_cast<RackRecovery*>(sack.get()), nullptr);
  EXPECT_NE(dynamic_cast<RackRecovery*>(MakeLossRecovery(FeatureConfig(true, true)).get()),
            nullptr);
}

// ---- NewReno (RFC 6582) ----

TEST(NewRenoRecoveryTest, ThirdDupAckEntersRecoveryOnce) {
  NewRenoRecovery r;
  for (int i = 1; i <= 2; ++i) {
    const RecoveryAction a = r.OnDupAck(10 * kMss, At(i));
    EXPECT_FALSE(a.loss_event || a.repair_head) << "dup ack " << i;
  }
  EXPECT_FALSE(r.in_recovery());
  const RecoveryAction third = r.OnDupAck(10 * kMss, At(3));
  EXPECT_TRUE(third.loss_event);
  EXPECT_TRUE(third.repair_head);
  EXPECT_TRUE(r.in_recovery());
  for (int i = 4; i <= 5; ++i) {
    const RecoveryAction a = r.OnDupAck(10 * kMss, At(i));
    EXPECT_FALSE(a.loss_event || a.repair_head) << "dup ack " << i;
  }
  EXPECT_EQ(r.stats().recovery_events, 1u);
}

TEST(NewRenoRecoveryTest, SixthDupAckRepairsHeadAgainWithoutSecondReduction) {
  NewRenoRecovery r;
  for (int i = 1; i <= 5; ++i) {
    r.OnDupAck(10 * kMss, At(i));
  }
  const RecoveryAction sixth = r.OnDupAck(10 * kMss, At(6));
  EXPECT_TRUE(sixth.repair_head);
  EXPECT_FALSE(sixth.loss_event);
  EXPECT_EQ(r.stats().recovery_events, 1u);
}

TEST(NewRenoRecoveryTest, PartialAckRepairsHeadUnlessAnRtoOpenedTheEpisode) {
  NewRenoRecovery fast;
  for (int i = 1; i <= 3; ++i) {
    fast.OnDupAck(10 * kMss, At(i));
  }
  const RecoveryAction partial = fast.OnCumAck(4 * kMss, At(5));
  EXPECT_TRUE(partial.repair_head);
  EXPECT_FALSE(partial.loss_event);
  EXPECT_TRUE(fast.in_recovery());

  NewRenoRecovery timeout;
  EXPECT_TRUE(timeout.OnRto(10 * kMss, At(1)));  // Go-back-N rewind.
  EXPECT_TRUE(timeout.in_recovery());
  EXPECT_TRUE(timeout.Resends(4 * kMss));  // Below the recovery point.
  EXPECT_FALSE(timeout.OnCumAck(4 * kMss, At(5)).repair_head);
  EXPECT_TRUE(timeout.in_recovery());
}

TEST(NewRenoRecoveryTest, FullAckExitsAndBooksTheEpisodeTime) {
  NewRenoRecovery r;
  for (int i = 1; i <= 3; ++i) {
    r.OnDupAck(10 * kMss, At(i));
  }
  EXPECT_FALSE(r.OnCumAck(10 * kMss, At(7.5)).repair_head);
  EXPECT_FALSE(r.in_recovery());
  EXPECT_FALSE(r.Resends(4 * kMss));
  EXPECT_EQ(r.stats().recovery_events, 1u);
  EXPECT_EQ(r.stats().recovery_us_total, 4500u);  // Entered at 3 ms.
}

// ---- SACK scoreboard (RFC 6675) ----

TEST(SackRecoveryTest, SegmentLostOnce3MssAreSackedAboveItsFloor) {
  SackRecovery r(kMss);
  const RttEstimator rtt = RttOf(Duration::Millis(10));
  SendRun(r, 0, 5, At(0));
  // 2 MSS above the first segment's floor (its end): not yet.
  EXPECT_TRUE(r.OnSackBlocks(Sack(1 * kMss, 3 * kMss), 0));
  EXPECT_FALSE(r.DetectLosses(5 * kMss, rtt, At(10)).loss_event);
  EXPECT_FALSE(r.has_lost());
  // The third sacked MSS condemns it, and only it.
  EXPECT_TRUE(r.OnSackBlocks(Sack(3 * kMss, 4 * kMss), 0));
  EXPECT_TRUE(r.DetectLosses(5 * kMss, rtt, At(11)).loss_event);
  EXPECT_TRUE(r.in_recovery());
  const std::optional<SeqRange> hole = r.NextRepair(0);
  ASSERT_TRUE(hole.has_value());
  EXPECT_EQ(hole->start, 0u);
  EXPECT_EQ(hole->end, kMss);
  EXPECT_FALSE(r.NextRepair(hole->end).has_value());
}

// Loses the first of five segments at t=0 and repairs it at `repair_at`.
void LoseAndRepairHead(SackRecovery& r, const RttEstimator& rtt, TimePoint repair_at) {
  SendRun(r, 0, 5, At(0));
  r.OnSackBlocks(Sack(1 * kMss, 4 * kMss), 0);
  ASSERT_TRUE(r.DetectLosses(5 * kMss, rtt, At(10)).loss_event);
  r.OnSent(0, kMss, /*is_retransmit=*/true, repair_at);
  ASSERT_FALSE(r.has_lost());
}

TEST(SackRecoveryTest, RepairIsNotRemarkedBeforeNewerEvidenceAndOneSrtt) {
  const RttEstimator rtt = RttOf(Duration::Millis(10));
  {
    // The repair's floor is the sack high-water mark when it went out
    // (4 MSS), so sacks up to 5 MSS are old news however long it waits.
    SackRecovery r(kMss);
    LoseAndRepairHead(r, rtt, At(20));
    r.OnSackBlocks(Sack(4 * kMss, 5 * kMss), 0);
    r.DetectLosses(5 * kMss, rtt, At(40));
    EXPECT_FALSE(r.has_lost());
    SendRun(r, 5 * kMss, 2, At(40));
    r.OnSackBlocks(Sack(5 * kMss, 7 * kMss), 0);
    r.DetectLosses(7 * kMss, rtt, At(41));
    EXPECT_TRUE(r.has_lost());
  }
  {
    // Newer evidence inside one SRTT of the repair: its sack cannot be
    // back yet.
    SackRecovery r(kMss);
    LoseAndRepairHead(r, rtt, At(20));
    SendRun(r, 5 * kMss, 2, At(20));
    r.OnSackBlocks(Sack(4 * kMss, 7 * kMss), 0);
    r.DetectLosses(7 * kMss, rtt, At(25));
    EXPECT_FALSE(r.has_lost());
    r.DetectLosses(7 * kMss, rtt, At(30));
    EXPECT_TRUE(r.has_lost());
  }
}

TEST(SackRecoveryTest, RtoMarksEveryUnsackedSegmentLostWithoutRewind) {
  SackRecovery r(kMss);
  SendRun(r, 0, 5, At(0));
  r.OnSackBlocks(Sack(2 * kMss, 3 * kMss), 0);
  EXPECT_FALSE(r.OnRto(5 * kMss, At(200)));
  EXPECT_TRUE(r.in_recovery());
  EXPECT_EQ(r.stats().recovery_events, 1u);
  std::vector<uint64_t> holes;
  for (std::optional<SeqRange> h = r.NextRepair(0); h.has_value(); h = r.NextRepair(h->end)) {
    holes.push_back(h->start);
  }
  EXPECT_EQ(holes, (std::vector<uint64_t>{0, 1 * kMss, 3 * kMss, 4 * kMss}));
  EXPECT_EQ(r.InFlight(0, 5 * kMss), 0u);
}

TEST(SackRecoveryTest, PipeIsOutstandingMinusSackedMinusLost) {
  SackRecovery r(kMss);
  const RttEstimator rtt = RttOf(Duration::Millis(10));
  SendRun(r, 0, 10, At(0));
  EXPECT_EQ(r.InFlight(0, 10 * kMss), 10 * kMss);
  r.OnSackBlocks(Sack(5 * kMss, 7 * kMss), 0);
  r.DetectLosses(10 * kMss, rtt, At(10));  // Floors 1..4 MSS + 3 MSS <= 7 MSS.
  EXPECT_EQ(r.InFlight(0, 10 * kMss), 10 * kMss - 2 * kMss - 4 * kMss);
  r.OnCumAck(2 * kMss, At(11));  // Acks two lost segments.
  EXPECT_EQ(r.InFlight(2 * kMss, 10 * kMss), 8 * kMss - 2 * kMss - 2 * kMss);
}

// ---- RACK-TLP (RFC 8985) ----

TEST(RackRecoveryTest, SegmentSentBeforeADeliveredOneIsLostAfterSrttPlusQuarterMinRtt) {
  RackRecovery r(kMss, Duration::Millis(40));
  const RttEstimator rtt = RttOf(Duration::Millis(8));  // Timeout 8 + 2 ms.
  r.OnSent(0, kMss, false, At(0));
  r.OnSent(kMss, 2 * kMss, false, At(0.5));
  r.OnSent(2 * kMss, 3 * kMss, false, At(1));
  r.OnSent(3 * kMss, 4 * kMss, false, At(1.5));  // After the delivered one.
  r.OnSackBlocks(Sack(2 * kMss, 3 * kMss), 0);

  const RecoveryAction early = r.DetectLosses(4 * kMss, rtt, At(9));
  EXPECT_FALSE(early.loss_event);
  ASSERT_TRUE(early.recheck.has_value());
  EXPECT_EQ(*early.recheck, Duration::Millis(1));  // The oldest waits least.

  const RecoveryAction first = r.DetectLosses(4 * kMss, rtt, At(10));
  EXPECT_TRUE(first.loss_event);
  EXPECT_EQ(r.stats().rack_marked_lost, 1u);
  ASSERT_TRUE(first.recheck.has_value());
  EXPECT_EQ(*first.recheck, Duration::Micros(500));  // The rest of the flight.

  const RecoveryAction second = r.DetectLosses(4 * kMss, rtt, At(10.5));
  EXPECT_FALSE(second.loss_event);  // Same episode.
  EXPECT_FALSE(second.recheck.has_value());
  EXPECT_EQ(r.stats().rack_marked_lost, 2u);
  EXPECT_EQ(r.NextRepair(0)->start, 0u);
  EXPECT_EQ(r.NextRepair(kMss)->start, kMss);
  EXPECT_FALSE(r.NextRepair(2 * kMss).has_value());  // Sent after delivery.
}

TEST(RackRecoveryTest, LateSackOfALostSegmentRevertsItAndKeepsThePipe) {
  RackRecovery r(kMss, Duration::Millis(40));
  const RttEstimator rtt = RttOf(Duration::Millis(8));
  r.OnSent(0, kMss, false, At(0));
  SendRun(r, kMss, 3, At(1));
  r.OnSackBlocks(Sack(2 * kMss, 3 * kMss), 0);
  r.DetectLosses(4 * kMss, rtt, At(10.5));  // Condemns the first segment only.
  ASSERT_TRUE(r.has_lost());
  const uint64_t pipe = r.InFlight(0, 4 * kMss);
  EXPECT_EQ(pipe, 4 * kMss - kMss - kMss);

  EXPECT_TRUE(r.OnSackBlocks(Sack(0, kMss), 0));
  EXPECT_EQ(r.stats().spurious_loss_reverts, 1u);
  EXPECT_FALSE(r.has_lost());
  EXPECT_EQ(r.InFlight(0, 4 * kMss), pipe);  // Lost bytes became sacked.
}

TEST(RackRecoveryTest, ProbeTimeoutIsTwoSrttPlusDelackForSmallFlightsWhenShorterThanRto) {
  RackRecovery r(kMss, Duration::Millis(40));
  EXPECT_FALSE(r.ProbeTimeout(10 * kMss, RttEstimator()).has_value());  // No SRTT yet.

  const RttEstimator rtt = RttOf(Duration::Millis(20));  // RTO at its 200 ms floor.
  EXPECT_EQ(r.ProbeTimeout(2 * kMss, rtt), Duration::Millis(40));
  EXPECT_EQ(r.ProbeTimeout(2 * kMss - 1, rtt), Duration::Millis(40 + 40 + 2));

  // 2 * 150 ms is not shorter than the 200 ms RTO: arm the RTO instead.
  EXPECT_FALSE(r.ProbeTimeout(10 * kMss, RttOf(Duration::Millis(150), 30)).has_value());

  // One probe per flight: none until the cumulative ack moves.
  r.OnSent(0, kMss, false, At(0));
  ASSERT_TRUE(r.OnProbe().has_value());
  EXPECT_FALSE(r.ProbeTimeout(10 * kMss, rtt).has_value());
  r.OnCumAck(kMss, At(30));
  EXPECT_TRUE(r.ProbeTimeout(10 * kMss, rtt).has_value());
}

}  // namespace
}  // namespace e2e
