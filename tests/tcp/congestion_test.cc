#include "src/tcp/cc/reno.h"

#include <gtest/gtest.h>

#include "src/testbed/topology.h"

namespace e2e {
namespace {

CcConfig Cfg() {
  CcConfig config;
  config.mss = 1000;
  config.initial_window_segments = 10;
  config.max_window_bytes = 1000000;
  return config;
}

TEST(CongestionControlTest, StartsAtInitialWindow) {
  RenoCongestionControl cc(Cfg());
  EXPECT_EQ(cc.window_bytes(), 10000u);
  EXPECT_TRUE(cc.in_slow_start());
}

TEST(CongestionControlTest, SlowStartDoublesPerWindow) {
  RenoCongestionControl cc(Cfg());
  cc.OnAck(10000);  // A full window acked -> window doubles.
  EXPECT_EQ(cc.window_bytes(), 20000u);
  cc.OnAck(20000);
  EXPECT_EQ(cc.window_bytes(), 40000u);
}

TEST(CongestionControlTest, CongestionAvoidanceGrowsOneMssPerWindow) {
  RenoCongestionControl cc(Cfg());
  cc.OnDupAckThreshold();  // ssthresh = 5000, cwnd = 5000: avoidance mode.
  EXPECT_FALSE(cc.in_slow_start());
  const uint64_t before = cc.window_bytes();
  cc.OnAck(before);  // One full window of acks.
  EXPECT_EQ(cc.window_bytes(), before + 1000);
  // Partial windows accumulate instead of rounding to zero growth.
  const uint64_t start = cc.window_bytes();
  for (int i = 0; i < 6; ++i) {
    cc.OnAck(start / 6 + 1);
  }
  EXPECT_GE(cc.window_bytes(), start + 1000);
}

TEST(CongestionControlTest, FastRetransmitHalves) {
  RenoCongestionControl cc(Cfg());
  cc.OnAck(30000);  // cwnd 40000.
  cc.OnDupAckThreshold();
  EXPECT_EQ(cc.window_bytes(), 20000u);
  EXPECT_EQ(cc.ssthresh(), 20000u);
}

TEST(CongestionControlTest, TimeoutCollapsesToOneMss) {
  RenoCongestionControl cc(Cfg());
  cc.OnAck(30000);
  cc.OnRto();
  EXPECT_EQ(cc.window_bytes(), 1000u);
  EXPECT_TRUE(cc.in_slow_start());
  EXPECT_EQ(cc.ssthresh(), 20000u);
}

TEST(CongestionControlTest, FloorsAtTwoMss) {
  RenoCongestionControl cc(Cfg());
  for (int i = 0; i < 10; ++i) {
    cc.OnDupAckThreshold();
  }
  EXPECT_EQ(cc.window_bytes(), 2000u);
}

TEST(CongestionControlTest, CapsAtMaxWindow) {
  RenoCongestionControl cc(Cfg());
  for (int i = 0; i < 40; ++i) {
    cc.OnAck(cc.window_bytes());
  }
  EXPECT_EQ(cc.window_bytes(), 1000000u);
}

TEST(CongestionControlTest, DisabledIsUnbounded) {
  CcConfig config = Cfg();
  config.enabled = false;
  RenoCongestionControl cc(config);
  EXPECT_GT(cc.window_bytes(), 1ull << 60);
  cc.OnRto();
  EXPECT_GT(cc.window_bytes(), 1ull << 60);
}

// Full-stack: a cold connection's first flight is bounded by IW10, then the
// window opens as acks return.
TEST(CongestionIntegration, InitialFlightIsWindowLimited) {
  TwoHostTopology topo;
  TcpConfig tcp;
  tcp.nodelay = true;
  tcp.e2e_exchange_interval = Duration::Zero();
  tcp.cc.initial_window_segments = 4;  // 4 * 1448 = 5792 bytes.
  ConnectedPair conn = topo.Connect(1, tcp, tcp);
  topo.client_host().app_core().SubmitFixed(Duration::Nanos(100), [&] {
    MessageRecord record;
    record.id = 1;
    conn.a->Send(100000, std::move(record));
  });
  // Before any ack returns (propagation 3 us each way), at most IW bytes
  // can be on the wire.
  topo.sim().RunUntil(TimePoint::FromNanos(4000));
  EXPECT_LE(conn.a->stats().bytes_sent, 4u * 1448u);
  // Eventually everything arrives.
  topo.sim().RunFor(Duration::Millis(50));
  EXPECT_EQ(conn.b->Recv().bytes, 100000u);
  EXPECT_FALSE(conn.a->congestion().in_slow_start() &&
               conn.a->congestion().window_bytes() < 100000u);
}

}  // namespace
}  // namespace e2e
