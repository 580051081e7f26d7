#include "src/core/health.h"

#include <gtest/gtest.h>

namespace e2e {
namespace {

TimePoint Ms(int64_t ms) { return TimePoint::FromNanos(ms * 1000000); }

HealthConfig FastConfig() {
  HealthConfig config;
  config.freshness_bound = Duration::Millis(10);
  config.static_after = Duration::Millis(50);
  config.promote_after = 4;
  config.demote_after_rejects = 3;
  return config;
}

// Feeds `n` healthy exchanges 1 ms apart starting at `start_ms`.
void FeedHealthy(EstimatorHealth& health, int n, int start_ms) {
  for (int i = 0; i < n; ++i) {
    health.OnExchange(Ms(start_ms + i), WireDeltaVerdict::kOk);
  }
}

// A controller tick on a busy connection: a segment arrived just now.
void TickBusy(EstimatorHealth& health, int64_t ms) { health.Tick(Ms(ms), Ms(ms)); }

TEST(EstimatorHealthTest, TrustIsEarnedStartsStatic) {
  EstimatorHealth health(FastConfig(), Ms(0));
  EXPECT_EQ(health.state(), HealthState::kStatic);
  ASSERT_EQ(health.transitions().size(), 1u);
  EXPECT_EQ(health.transitions()[0].second, HealthState::kStatic);
}

TEST(EstimatorHealthTest, PromotesOneLevelPerHealthyStreak) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 3, 0);
  EXPECT_EQ(health.state(), HealthState::kStatic);  // Streak not yet complete.
  FeedHealthy(health, 1, 3);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);  // One level, not two.
  FeedHealthy(health, 4, 4);
  EXPECT_EQ(health.state(), HealthState::kFull);
  EXPECT_EQ(health.counters().promotions, 2u);
  EXPECT_EQ(health.counters().healthy_exchanges, 8u);
}

TEST(EstimatorHealthTest, SingleRejectResetsPromotionStreak) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 3, 0);
  health.OnExchange(Ms(3), WireDeltaVerdict::kNoProgress);
  FeedHealthy(health, 3, 4);
  EXPECT_EQ(health.state(), HealthState::kStatic);  // 3 + 3 != 4 consecutive.
  FeedHealthy(health, 1, 7);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
}

TEST(EstimatorHealthTest, RejectStreakDemotesOneLevelAtATime) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  // Two rejects: below the streak. A healthy exchange resets it.
  health.OnExchange(Ms(8), WireDeltaVerdict::kWrapViolation);
  health.OnExchange(Ms(9), WireDeltaVerdict::kWrapViolation);
  health.OnExchange(Ms(10), WireDeltaVerdict::kOk);
  EXPECT_EQ(health.state(), HealthState::kFull);
  // Three consecutive rejects demote kFull -> kLocalOnly, three more
  // -> kStatic, and further streaks saturate there.
  for (int i = 0; i < 3; ++i) {
    health.OnExchange(Ms(11 + i), WireDeltaVerdict::kImplausibleDelay);
  }
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  for (int i = 0; i < 3; ++i) {
    health.OnExchange(Ms(14 + i), WireDeltaVerdict::kNoProgress);
  }
  EXPECT_EQ(health.state(), HealthState::kStatic);
  for (int i = 0; i < 3; ++i) {
    health.OnExchange(Ms(17 + i), WireDeltaVerdict::kNoProgress);
  }
  EXPECT_EQ(health.state(), HealthState::kStatic);
  EXPECT_EQ(health.counters().rejected_total(), 11u);
  EXPECT_EQ(health.counters().rejected_wrap_violation, 2u);
  EXPECT_EQ(health.counters().rejected_implausible_delay, 3u);
  EXPECT_EQ(health.counters().rejected_no_progress, 6u);
}

TEST(EstimatorHealthTest, FreshnessTickDemotesFullThenStatic) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  // Last healthy exchange at 7 ms. Inside the bound: no demotion.
  TickBusy(health, 16);
  EXPECT_EQ(health.state(), HealthState::kFull);
  // Past freshness_bound (10 ms): one level.
  TickBusy(health, 18);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  // Still short of static_after: holds.
  TickBusy(health, 40);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  // Past static_after (50 ms since last healthy): all the way down.
  TickBusy(health, 58);
  EXPECT_EQ(health.state(), HealthState::kStatic);
  EXPECT_EQ(health.counters().demotions, 2u);
}

TEST(EstimatorHealthTest, NoArrivalsSinceLastHealthyExchangeNeverDemotes) {
  // Endpoints exchange on change, so a quiet connection sends nothing at
  // all. Silence with no segment arriving is an idle peer, not a stale one.
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  const TimePoint last_arrival = Ms(7);  // The last exchange's segment.
  for (const int64_t ms : {18, 58, 1000, 60 * 60 * 1000}) {
    health.Tick(Ms(ms), last_arrival);
    EXPECT_EQ(health.state(), HealthState::kFull) << "at " << ms << " ms";
  }
  EXPECT_EQ(health.counters().demotions, 0u);
}

TEST(EstimatorHealthTest, ArrivalsWithoutMetadataStillDemoteAtFreshnessBound) {
  // Busy connection, feed withheld: segments keep arriving, none carries
  // a healthy exchange after 7 ms.
  EstimatorHealth busy(FastConfig(), Ms(0));
  FeedHealthy(busy, 8, 0);
  ASSERT_EQ(busy.state(), HealthState::kFull);
  busy.Tick(Ms(17), Ms(16));  // 10 ms: at the bound, not past it.
  EXPECT_EQ(busy.state(), HealthState::kFull);
  busy.Tick(Ms(18), Ms(17));
  EXPECT_EQ(busy.state(), HealthState::kLocalOnly);
  busy.Tick(Ms(58), Ms(57));
  EXPECT_EQ(busy.state(), HealthState::kStatic);
  EXPECT_EQ(busy.counters().demotions, 2u);

  // The same withheld feed after a long silence: staleness counts from
  // when the silence ended (to tick granularity), not from 7 ms.
  EstimatorHealth resumed(FastConfig(), Ms(0));
  FeedHealthy(resumed, 8, 0);
  resumed.Tick(Ms(1000), Ms(7));  // Idle.
  const TimePoint first_arrival = Ms(1000) + Duration::Micros(500);
  resumed.Tick(Ms(1001), first_arrival);
  resumed.Tick(Ms(1010), Ms(1010));
  EXPECT_EQ(resumed.state(), HealthState::kFull);
  resumed.Tick(Ms(1011), Ms(1011));
  EXPECT_EQ(resumed.state(), HealthState::kLocalOnly);
}

TEST(EstimatorHealthTest, ZeroDepartureRefreshesFreshnessButNotStreaks) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  // A trickle of zero-departure exchanges keeps the channel provably alive
  // long past the freshness bound: no demotion.
  for (int i = 0; i < 40; ++i) {
    health.OnExchange(Ms(8 + i * 5), WireDeltaVerdict::kZeroDeparture);
    TickBusy(health, 8 + i * 5);
  }
  EXPECT_EQ(health.state(), HealthState::kFull);
  EXPECT_EQ(health.counters().zero_departure_exchanges, 40u);

  // But it proves nothing about plausibility: from kStatic, zero-departure
  // exchanges interleaved with a healthy streak neither reset nor advance
  // the promotion count.
  EstimatorHealth cold(FastConfig(), Ms(0));
  for (int i = 0; i < 3; ++i) {
    cold.OnExchange(Ms(i * 2), WireDeltaVerdict::kOk);
    cold.OnExchange(Ms(i * 2 + 1), WireDeltaVerdict::kZeroDeparture);
  }
  EXPECT_EQ(cold.state(), HealthState::kStatic);
  cold.OnExchange(Ms(6), WireDeltaVerdict::kOk);  // 4th consecutive kOk.
  EXPECT_EQ(cold.state(), HealthState::kLocalOnly);
}

TEST(EstimatorHealthTest, ConnectionLossIsAHardDemotionToStatic) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  health.OnConnectionLost(Ms(10));
  EXPECT_EQ(health.state(), HealthState::kStatic);
  EXPECT_EQ(health.counters().connection_losses, 1u);
  // Reconnect restarts the freshness clock but not the trust level: the
  // replacement connection re-earns kFull through the normal streak.
  health.OnReconnect(Ms(30));
  EXPECT_EQ(health.state(), HealthState::kStatic);
  TickBusy(health, 35);  // 5 ms since reconnect, not 35 since last healthy.
  EXPECT_EQ(health.state(), HealthState::kStatic);
  FeedHealthy(health, 8, 36);
  EXPECT_EQ(health.state(), HealthState::kFull);
}

TEST(EstimatorHealthTest, TimeInStateAccountsOpenSpans) {
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 4, 0);  // kLocalOnly at t=3.
  FeedHealthy(health, 4, 10);  // kFull at t=13.
  EXPECT_EQ(health.TimeIn(HealthState::kStatic, Ms(20)), Duration::Millis(3));
  EXPECT_EQ(health.TimeIn(HealthState::kLocalOnly, Ms(20)), Duration::Millis(10));
  EXPECT_EQ(health.TimeIn(HealthState::kFull, Ms(20)), Duration::Millis(7));

  ASSERT_EQ(health.transitions().size(), 3u);
  EXPECT_EQ(health.transitions()[1].first, Ms(3));
  EXPECT_EQ(health.transitions()[1].second, HealthState::kLocalOnly);
  EXPECT_EQ(health.transitions()[2].first, Ms(13));
  EXPECT_EQ(health.transitions()[2].second, HealthState::kFull);
}

TEST(EstimatorHealthTest, StateNamesAreStable) {
  EXPECT_STREQ(HealthStateName(HealthState::kFull), "full");
  EXPECT_STREQ(HealthStateName(HealthState::kLocalOnly), "local_only");
  EXPECT_STREQ(HealthStateName(HealthState::kDiagAssisted), "diag_assisted");
  EXPECT_STREQ(HealthStateName(HealthState::kStatic), "static");
}

TEST(EstimatorHealthTest, FreshDiagSignalCatchesAWouldBeFreezeAsRescue) {
  EstimatorHealth health(FastConfig(), Ms(0));
  health.SetDiagSignal([](TimePoint) { return true; });
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  // Freshness path: past static_after the floor is kDiagAssisted, not
  // kStatic, because the in-network observer vouches for the flow.
  TickBusy(health, 18);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  TickBusy(health, 58);
  EXPECT_EQ(health.state(), HealthState::kDiagAssisted);
  EXPECT_EQ(health.counters().diag_rescues, 1u);
  EXPECT_EQ(health.counters().diag_dropouts, 0u);
}

TEST(EstimatorHealthTest, DiagSignalDropoutFallsToStatic) {
  EstimatorHealth health(FastConfig(), Ms(0));
  bool fresh = true;
  health.SetDiagSignal([&fresh](TimePoint) { return fresh; });
  FeedHealthy(health, 8, 0);
  TickBusy(health, 58);
  ASSERT_EQ(health.state(), HealthState::kDiagAssisted);
  // The tapped flow goes quiet: the refuge is gone, freeze for real.
  fresh = false;
  TickBusy(health, 60);
  EXPECT_EQ(health.state(), HealthState::kStatic);
  EXPECT_EQ(health.counters().diag_dropouts, 1u);
  // And a returning signal recovers kDiagAssisted from kStatic.
  fresh = true;
  TickBusy(health, 62);
  EXPECT_EQ(health.state(), HealthState::kDiagAssisted);
  EXPECT_EQ(health.counters().diag_rescues, 2u);
}

TEST(EstimatorHealthTest, RejectStreaksAlsoLandOnDiagAssisted) {
  EstimatorHealth health(FastConfig(), Ms(0));
  health.SetDiagSignal([](TimePoint) { return true; });
  FeedHealthy(health, 8, 0);
  ASSERT_EQ(health.state(), HealthState::kFull);
  for (int i = 0; i < 3; ++i) {
    health.OnExchange(Ms(8 + i), WireDeltaVerdict::kNoProgress);
  }
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  // The step below kLocalOnly is the diag-gated floor.
  for (int i = 0; i < 3; ++i) {
    health.OnExchange(Ms(11 + i), WireDeltaVerdict::kNoProgress);
  }
  EXPECT_EQ(health.state(), HealthState::kDiagAssisted);
  EXPECT_EQ(health.counters().diag_rescues, 1u);
}

TEST(EstimatorHealthTest, DiagAssistedIsNotATrustRung) {
  // Promotion out of kDiagAssisted goes straight to kLocalOnly: installing
  // a diag signal never lengthens the climb back to kFull.
  EstimatorHealth health(FastConfig(), Ms(0));
  health.SetDiagSignal([](TimePoint) { return true; });
  FeedHealthy(health, 8, 0);
  TickBusy(health, 58);
  ASSERT_EQ(health.state(), HealthState::kDiagAssisted);
  FeedHealthy(health, 4, 60);
  EXPECT_EQ(health.state(), HealthState::kLocalOnly);
  FeedHealthy(health, 4, 70);
  EXPECT_EQ(health.state(), HealthState::kFull);
}

TEST(EstimatorHealthTest, WithoutDiagSignalChainIsThreeState) {
  // No signal installed: behavior is byte-for-byte the pre-diag ladder —
  // kDiagAssisted is unreachable and every floor is kStatic.
  EstimatorHealth health(FastConfig(), Ms(0));
  FeedHealthy(health, 8, 0);
  TickBusy(health, 58);
  EXPECT_EQ(health.state(), HealthState::kStatic);
  EXPECT_EQ(health.counters().diag_rescues, 0u);
  EXPECT_EQ(health.counters().diag_dropouts, 0u);
  for (const auto& [when, state] : health.transitions()) {
    (void)when;
    EXPECT_NE(state, HealthState::kDiagAssisted);
  }

  // Same for a stale signal: installed but never fresh.
  EstimatorHealth stale(FastConfig(), Ms(0));
  stale.SetDiagSignal([](TimePoint) { return false; });
  FeedHealthy(stale, 8, 0);
  TickBusy(stale, 58);
  EXPECT_EQ(stale.state(), HealthState::kStatic);
  EXPECT_EQ(stale.counters().diag_rescues, 0u);
}

TEST(EstimatorHealthTest, ConnectionLossBypassesTheDiagRefuge) {
  // A dead metadata *connection* is a hard stop: the diag signal vouches
  // for the data flow, not for the estimator, so loss still lands kStatic.
  EstimatorHealth health(FastConfig(), Ms(0));
  health.SetDiagSignal([](TimePoint) { return true; });
  FeedHealthy(health, 8, 0);
  health.OnConnectionLost(Ms(10));
  EXPECT_EQ(health.state(), HealthState::kStatic);
}

}  // namespace
}  // namespace e2e
