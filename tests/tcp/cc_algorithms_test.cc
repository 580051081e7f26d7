// Invariants of the pluggable congestion-control algorithms (DESIGN.md
// §13): the CUBIC curve's shape around W_max, DCTCP's alpha EWMA
// convergence and proportional decrease, the RFC 5681 §3.1 RTO collapse
// shared by all three, and the once-per-RTT ECN reaction gating of Reno and
// CUBIC.

#include <gtest/gtest.h>

#include <cmath>

#include "src/tcp/cc/congestion_control.h"
#include "src/tcp/cc/cubic.h"
#include "src/tcp/cc/dctcp.h"
#include "src/tcp/cc/reno.h"

namespace e2e {
namespace {

CcConfig Cfg(CcAlgorithm algorithm) {
  CcConfig config;
  config.algorithm = algorithm;
  config.mss = 1000;
  config.initial_window_segments = 10;
  config.max_window_bytes = 1000000;
  return config;
}

// ---- Factory ----

TEST(CcFactory, BuildsTheSelectedAlgorithm) {
  EXPECT_STREQ(MakeCongestionControl(Cfg(CcAlgorithm::kReno))->name(), "reno");
  EXPECT_STREQ(MakeCongestionControl(Cfg(CcAlgorithm::kCubic))->name(), "cubic");
  EXPECT_STREQ(MakeCongestionControl(Cfg(CcAlgorithm::kDctcp))->name(), "dctcp");
}

TEST(CcFactory, NamesAreStable) {
  EXPECT_STREQ(CcAlgorithmName(CcAlgorithm::kReno), "reno");
  EXPECT_STREQ(CcAlgorithmName(CcAlgorithm::kCubic), "cubic");
  EXPECT_STREQ(CcAlgorithmName(CcAlgorithm::kDctcp), "dctcp");
}

// ---- RTO collapse (RFC 5681 §3.1), identical contract for every policy ----

TEST(CcRtoCollapse, AllAlgorithmsCollapseToOneMssAndReenterSlowStart) {
  for (CcAlgorithm algorithm :
       {CcAlgorithm::kReno, CcAlgorithm::kCubic, CcAlgorithm::kDctcp}) {
    SCOPED_TRACE(CcAlgorithmName(algorithm));
    auto cc = MakeCongestionControl(Cfg(algorithm));
    // Open the window well past the initial 10 segments.
    TimePoint now = TimePoint::Zero();
    for (int i = 0; i < 4; ++i) {
      now = now + Duration::Micros(100);
      cc->OnAck(cc->cwnd_bytes(), now);
    }
    const uint64_t before = cc->cwnd_bytes();
    ASSERT_GT(before, 20000u);

    cc->OnRto();
    // cwnd = 1 MSS and slow start restarts. ssthresh remembers half the
    // window (RFC 5681 §3.1) — beta = 0.7 of it for CUBIC (RFC 8312 §4.7).
    EXPECT_EQ(cc->cwnd_bytes(), 1000u);
    if (algorithm == CcAlgorithm::kCubic) {
      EXPECT_NEAR(static_cast<double>(cc->ssthresh()), 0.7 * static_cast<double>(before),
                  1000.0);
    } else {
      EXPECT_EQ(cc->ssthresh(), before / 2);
    }
    EXPECT_TRUE(cc->in_slow_start());
    EXPECT_GE(cc->decrease_events(), 1u);

    // Slow-start regrowth: exponential until ssthresh.
    now = now + Duration::Micros(100);
    cc->OnAck(cc->cwnd_bytes(), now);
    EXPECT_EQ(cc->cwnd_bytes(), 2000u);
    now = now + Duration::Micros(100);
    cc->OnAck(cc->cwnd_bytes(), now);
    EXPECT_EQ(cc->cwnd_bytes(), 4000u);
  }
}

TEST(CcRtoCollapse, SsthreshFloorsAtTwoMss) {
  for (CcAlgorithm algorithm :
       {CcAlgorithm::kReno, CcAlgorithm::kCubic, CcAlgorithm::kDctcp}) {
    SCOPED_TRACE(CcAlgorithmName(algorithm));
    auto cc = MakeCongestionControl(Cfg(algorithm));
    for (int i = 0; i < 10; ++i) {
      cc->OnRto();
    }
    EXPECT_EQ(cc->cwnd_bytes(), 1000u);
    EXPECT_EQ(cc->ssthresh(), 2000u);
  }
}

// ---- CUBIC curve shape (RFC 8312) ----

TEST(CubicCurve, PlateausExactlyAtWmaxAtK) {
  const double c = 0.4;
  const double w_max = 100.0;
  const double k = std::cbrt(w_max * (1.0 - 0.7) / c);
  EXPECT_DOUBLE_EQ(CubicWindowSegments(c, w_max, k, k), w_max);
}

TEST(CubicCurve, MonotonicallyNondecreasing) {
  const double c = 0.4;
  const double w_max = 100.0;
  const double k = std::cbrt(w_max * (1.0 - 0.7) / c);
  double prev = CubicWindowSegments(c, w_max, k, 0.0);
  for (int i = 1; i <= 400; ++i) {
    const double t = 2.0 * k * i / 400.0;  // [0, 2K].
    const double w = CubicWindowSegments(c, w_max, k, t);
    EXPECT_GE(w, prev) << "t=" << t;
    prev = w;
  }
}

TEST(CubicCurve, ConcaveBeforeKConvexAfterK) {
  const double c = 0.4;
  const double w_max = 100.0;
  const double k = std::cbrt(w_max * (1.0 - 0.7) / c);
  const double h = k / 100.0;
  auto second_diff = [&](double t) {
    return CubicWindowSegments(c, w_max, k, t + h) - 2.0 * CubicWindowSegments(c, w_max, k, t) +
           CubicWindowSegments(c, w_max, k, t - h);
  };
  // Strictly inside each half; at t = K the curvature crosses zero.
  for (int i = 2; i <= 98; ++i) {
    const double t = k * i / 100.0;
    EXPECT_LE(second_diff(t), 1e-9) << "concave region, t=" << t;
    EXPECT_GE(second_diff(t + k), -1e-9) << "convex region, t=" << t + k;
  }
}

TEST(CubicControl, DecreaseIsByBetaAndEpochTargetsOldWindow) {
  CubicCongestionControl cc(Cfg(CcAlgorithm::kCubic));
  TimePoint now = TimePoint::Zero();
  for (int i = 0; i < 4; ++i) {
    now = now + Duration::Micros(100);
    cc.OnAck(cc.cwnd_bytes(), now);
  }
  const uint64_t before = cc.cwnd_bytes();
  cc.OnDupAckThreshold();
  // beta = 0.7: gentler than Reno's half.
  EXPECT_NEAR(static_cast<double>(cc.cwnd_bytes()), 0.7 * static_cast<double>(before),
              1000.0);
  EXPECT_FALSE(cc.in_slow_start());
  // W_max remembers where the loss happened (in segments).
  EXPECT_NEAR(cc.w_max_segments(), static_cast<double>(before) / 1000.0, 1.0);

  // Avoidance acks start the epoch and regrow toward W_max.
  for (int i = 0; i < 50; ++i) {
    now = now + Duration::Micros(100);
    cc.OnAck(cc.cwnd_bytes(), now);
  }
  EXPECT_TRUE(cc.epoch_started());
  EXPECT_GT(cc.cwnd_bytes(), static_cast<uint64_t>(0.7 * static_cast<double>(before)));
}

TEST(CubicControl, FastConvergenceReleasesRoomOnBackToBackLosses) {
  CubicCongestionControl cc(Cfg(CcAlgorithm::kCubic));
  TimePoint now = TimePoint::Zero();
  for (int i = 0; i < 4; ++i) {
    now = now + Duration::Micros(100);
    cc.OnAck(cc.cwnd_bytes(), now);
  }
  cc.OnDupAckThreshold();
  const double w_max_first = cc.w_max_segments();
  // A second loss below the previous W_max: the flow is losing ground, so
  // fast convergence sets W_max below the current window.
  cc.OnDupAckThreshold();
  EXPECT_LT(cc.w_max_segments(), w_max_first);
}

// ---- DCTCP alpha EWMA (RFC 8257) ----

// Drives `windows` observation windows with mark fraction `f`, advancing
// time one fallback-RTT per window so each rolls exactly once.
void DriveDctcpWindows(DctcpCongestionControl* cc, int windows, double f, TimePoint* now) {
  for (int w = 0; w < windows; ++w) {
    // 10 acks of 1000 bytes per window; the first f*10 carry ECE.
    const int marked = static_cast<int>(f * 10.0 + 0.5);
    for (int a = 0; a < 10; ++a) {
      *now = *now + Duration::Micros(10);
      if (a < marked) {
        cc->OnEcnEcho(1000, *now);
      }
      cc->OnAck(1000, *now);
    }
  }
}

TEST(DctcpControl, AlphaConvergesToTheMarkFraction) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  config.dctcp_alpha_init = 1.0;
  DctcpCongestionControl cc(config);
  TimePoint now = TimePoint::Zero();
  // alpha decays from 1.0 toward F = 0.3 with gain 1/16: after 200
  // windows, (1 - 1/16)^200 ~ 2.5e-6 of the initial error remains.
  DriveDctcpWindows(&cc, 200, 0.3, &now);
  EXPECT_NEAR(cc.alpha(), 0.3, 0.02);
}

TEST(DctcpControl, AlphaDecaysToZeroWithoutMarks) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  config.dctcp_alpha_init = 1.0;
  DctcpCongestionControl cc(config);
  TimePoint now = TimePoint::Zero();
  DriveDctcpWindows(&cc, 200, 0.0, &now);
  EXPECT_LT(cc.alpha(), 0.01);
}

TEST(DctcpControl, LightMarkingBarelyDentsTheWindow) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  DctcpCongestionControl cc(config);
  TimePoint now = TimePoint::Zero();
  // Converge alpha down to ~0.1 first.
  DriveDctcpWindows(&cc, 300, 0.1, &now);
  ASSERT_NEAR(cc.alpha(), 0.1, 0.02);
  const uint64_t before = cc.cwnd_bytes();
  DriveDctcpWindows(&cc, 1, 0.1, &now);
  // cwnd * (1 - alpha/2) ~ 0.95 * cwnd: proportional, not halved. Growth
  // in the same window can offset the dent; the point is the floor.
  EXPECT_GT(cc.cwnd_bytes(), static_cast<uint64_t>(0.9 * static_cast<double>(before)));
}

TEST(DctcpControl, DecreaseIsExactlyCwndTimesOneMinusHalfAlpha) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  config.dctcp_alpha_init = 0.5;
  DctcpCongestionControl cc(config);
  // One observation window: 10 acks of 1000 bytes, 5 of them marked, so
  // F = 0.5 keeps alpha pinned at 0.5 through the EWMA.
  TimePoint now = TimePoint::Zero();
  for (int a = 0; a < 10; ++a) {
    now = now + Duration::Micros(10);
    if (a < 5) {
      cc.OnEcnEcho(1000, now);
    }
    cc.OnAck(1000, now);  // Slow start: cwnd 10000 -> 20000.
  }
  ASSERT_EQ(cc.cwnd_bytes(), 20000u);
  // A zero-byte echo past the window boundary triggers the roll without
  // perturbing either tally: cwnd * (1 - alpha/2) = 20000 * 0.75.
  cc.OnEcnEcho(0, now + Duration::Micros(100));
  EXPECT_DOUBLE_EQ(cc.alpha(), 0.5);
  EXPECT_EQ(cc.cwnd_bytes(), 15000u);
  EXPECT_EQ(cc.ssthresh(), 15000u);  // The decrease also ends slow start.
  EXPECT_EQ(cc.decrease_events(), 1u);
}

TEST(DctcpControl, SustainedMarkingBoundsTheWindowUnmarkedDoesNot) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  config.dctcp_alpha_init = 1.0;
  DctcpCongestionControl unmarked(config);
  DctcpCongestionControl marked(config);
  TimePoint now_a = TimePoint::Zero();
  TimePoint now_b = TimePoint::Zero();
  DriveDctcpWindows(&unmarked, 50, 0.0, &now_a);
  DriveDctcpWindows(&marked, 50, 1.0, &now_b);
  // Unmarked slow start keeps absorbing every acked byte; heavy marking
  // pins the window near the bottom despite identical ack volume.
  EXPECT_GT(unmarked.cwnd_bytes(), 400000u);
  EXPECT_LT(marked.cwnd_bytes(), unmarked.cwnd_bytes() / 5);
  EXPECT_GT(marked.decrease_events(), 10u);
}

TEST(DctcpControl, AlphaSurvivesAnRto) {
  CcConfig config = Cfg(CcAlgorithm::kDctcp);
  DctcpCongestionControl cc(config);
  TimePoint now = TimePoint::Zero();
  DriveDctcpWindows(&cc, 300, 0.2, &now);
  const double alpha = cc.alpha();
  cc.OnRto();
  EXPECT_EQ(cc.cwnd_bytes(), 1000u);
  EXPECT_DOUBLE_EQ(cc.alpha(), alpha);  // RFC 8257 §3.5: alpha is kept.
}

// ---- Classic ECN reaction gating (RFC 3168) ----

TEST(RenoControl, EcnEchoHalvesOncePerRtt) {
  RenoCongestionControl cc(Cfg(CcAlgorithm::kReno));
  TimePoint now = TimePoint::FromNanos(1);
  cc.OnAck(30000, now);  // cwnd 40000.
  const uint64_t opened = cc.cwnd_bytes();

  cc.OnEcnEcho(1000, now);
  EXPECT_EQ(cc.cwnd_bytes(), opened / 2);
  EXPECT_EQ(cc.decrease_events(), 1u);
  EXPECT_EQ(cc.state(now), CcState::kCwr);

  // More echoes inside the same reaction window (fallback RTT = 100 us)
  // are the same congestion event: no further decrease.
  cc.OnEcnEcho(1000, now + Duration::Micros(50));
  EXPECT_EQ(cc.cwnd_bytes(), opened / 2);
  EXPECT_EQ(cc.decrease_events(), 1u);

  // Past the window, a new echo is a new event.
  cc.OnEcnEcho(1000, now + Duration::Micros(150));
  EXPECT_EQ(cc.cwnd_bytes(), opened / 4);
  EXPECT_EQ(cc.decrease_events(), 2u);
}

TEST(RenoControl, RttSampleSetsTheReactionWindow) {
  RenoCongestionControl cc(Cfg(CcAlgorithm::kReno));
  TimePoint now = TimePoint::FromNanos(1);
  cc.OnRttSample(Duration::Millis(1), now);
  cc.OnAck(30000, now);
  cc.OnEcnEcho(1000, now);
  const uint64_t after_first = cc.cwnd_bytes();
  // 150 us later is still inside the 1 ms smoothed RTT: still gated.
  cc.OnEcnEcho(1000, now + Duration::Micros(150));
  EXPECT_EQ(cc.cwnd_bytes(), after_first);
  EXPECT_EQ(cc.decrease_events(), 1u);
}

TEST(CubicControl, EcnEchoCutsByBetaLikeADupAckLoss) {
  CubicCongestionControl by_echo(Cfg(CcAlgorithm::kCubic));
  CubicCongestionControl by_loss(Cfg(CcAlgorithm::kCubic));
  TimePoint now = TimePoint::Zero();
  for (int i = 0; i < 4; ++i) {
    now = now + Duration::Micros(100);
    by_echo.OnAck(by_echo.cwnd_bytes(), now);
    by_loss.OnAck(by_loss.cwnd_bytes(), now);
  }
  const uint64_t before = by_echo.cwnd_bytes();
  ASSERT_EQ(by_loss.cwnd_bytes(), before);

  by_echo.OnEcnEcho(1000, now);
  by_loss.OnDupAckThreshold();
  EXPECT_NEAR(static_cast<double>(by_echo.cwnd_bytes()), 0.7 * static_cast<double>(before), 1.0);
  EXPECT_EQ(by_echo.cwnd_bytes(), by_loss.cwnd_bytes());
  EXPECT_EQ(by_echo.ssthresh(), by_loss.ssthresh());
  EXPECT_DOUBLE_EQ(by_echo.w_max_segments(), by_loss.w_max_segments());
  EXPECT_FALSE(by_echo.epoch_started());
  EXPECT_EQ(by_echo.decrease_events(), 1u);
  EXPECT_EQ(by_echo.state(now), CcState::kCwr);
}

TEST(CubicControl, EcnEchoReactsOncePerRtt) {
  CubicCongestionControl cc(Cfg(CcAlgorithm::kCubic));
  TimePoint now = TimePoint::FromNanos(1);
  cc.OnAck(30000, now);
  cc.OnEcnEcho(1000, now);
  const uint64_t cwnd = cc.cwnd_bytes();
  const uint64_t ssthresh = cc.ssthresh();
  const double w_max = cc.w_max_segments();

  // Inside the reaction window (fallback RTT = 100 us): the same event.
  cc.OnEcnEcho(1000, now + Duration::Micros(50));
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
  EXPECT_EQ(cc.ssthresh(), ssthresh);
  EXPECT_DOUBLE_EQ(cc.w_max_segments(), w_max);
  EXPECT_EQ(cc.decrease_events(), 1u);

  // Past it, a new echo is a new event.
  cc.OnEcnEcho(1000, now + Duration::Micros(150));
  EXPECT_LT(cc.cwnd_bytes(), cwnd);
  EXPECT_EQ(cc.decrease_events(), 2u);
}

TEST(CubicControl, EcnEchoIgnoredWhenDisabled) {
  CcConfig config = Cfg(CcAlgorithm::kCubic);
  config.enabled = false;
  CubicCongestionControl cc(config);
  const uint64_t cwnd = cc.cwnd_bytes();
  const uint64_t ssthresh = cc.ssthresh();
  const TimePoint now = TimePoint::FromNanos(1);
  cc.OnEcnEcho(1000, now);
  EXPECT_EQ(cc.cwnd_bytes(), cwnd);
  EXPECT_EQ(cc.ssthresh(), ssthresh);
  EXPECT_DOUBLE_EQ(cc.w_max_segments(), 0.0);
  EXPECT_EQ(cc.decrease_events(), 0u);
  EXPECT_EQ(cc.state(now), CcState::kSlowStart);
}

TEST(CcState, ReportsSlowStartAvoidanceAndCwr) {
  RenoCongestionControl cc(Cfg(CcAlgorithm::kReno));
  EXPECT_EQ(cc.state(), CcState::kSlowStart);
  cc.OnDupAckThreshold();
  EXPECT_EQ(cc.state(), CcState::kAvoidance);
  TimePoint now = TimePoint::FromNanos(1);
  cc.OnEcnEcho(1000, now);
  EXPECT_EQ(cc.state(now), CcState::kCwr);
  EXPECT_EQ(cc.state(now + Duration::Millis(1)), CcState::kAvoidance);
}

}  // namespace
}  // namespace e2e
