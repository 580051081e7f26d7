#include "src/tcp/stack.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/testbed/topology.h"

namespace e2e {
namespace {

MessageRecord Rec(uint64_t id) {
  MessageRecord record;
  record.id = id;
  return record;
}

TEST(TcpStackTest, MultipleConnectionsDemultiplex) {
  TwoHostTopology topo;
  TcpConfig config;
  config.nodelay = true;
  ConnectedPair c1 = topo.Connect(1, config, config);
  ConnectedPair c2 = topo.Connect(2, config, config);

  topo.client_host().app_core().SubmitFixed(Duration::Nanos(100), [&] {
    c1.a->Send(111, Rec(1));
    c2.a->Send(222, Rec(2));
  });
  topo.sim().RunFor(Duration::Millis(5));
  EXPECT_EQ(c1.b->ReadableBytes(), 111u);
  EXPECT_EQ(c2.b->ReadableBytes(), 222u);
  EXPECT_EQ(topo.server_stack().unknown_segments(), 0u);
}

TEST(TcpStackTest, GroCoalescesContiguousSlices) {
  TwoHostTopology topo;
  TcpConfig config;
  config.nodelay = true;
  config.tso = true;
  ConnectedPair conn = topo.Connect(1, config, config);
  // A 20 KB send slices into ~14 contiguous wire packets arriving
  // back-to-back: GRO should merge most of their stack traversals.
  topo.client_host().app_core().SubmitFixed(Duration::Nanos(100),
                                            [&] { conn.a->Send(20000, Rec(1)); });
  topo.sim().RunFor(Duration::Millis(5));
  EXPECT_EQ(conn.b->ReadableBytes(), 20000u);
  EXPECT_GT(topo.server_stack().gro_merged(), 5u);
}

TEST(TcpStackTest, GroDoesNotMergeAcrossConnections) {
  TwoHostTopology topo;
  TcpConfig config;
  config.nodelay = true;
  ConnectedPair c1 = topo.Connect(1, config, config);
  ConnectedPair c2 = topo.Connect(2, config, config);
  // Interleaved small sends from two connections: nothing contiguous.
  for (int i = 0; i < 10; ++i) {
    topo.sim().Schedule(Duration::Micros(2 * i), [&, i] {
      topo.client_host().app_core().SubmitFixed(Duration::Nanos(50), [&, i] {
        (i % 2 == 0 ? c1.a : c2.a)->Send(100, Rec(i));
      });
    });
  }
  topo.sim().RunFor(Duration::Millis(5));
  EXPECT_EQ(topo.server_stack().gro_merged(), 0u);
}

TEST(TcpStackTest, GroDisabledPaysPerPacket) {
  TopologyConfig topo_config;
  topo_config.server_stack_costs.gro = false;
  TwoHostTopology topo(topo_config);
  TcpConfig config;
  config.nodelay = true;
  ConnectedPair conn = topo.Connect(1, config, config);
  topo.client_host().app_core().SubmitFixed(Duration::Nanos(100),
                                            [&] { conn.a->Send(20000, Rec(1)); });
  topo.sim().RunFor(Duration::Millis(5));
  EXPECT_EQ(conn.b->ReadableBytes(), 20000u);
  EXPECT_EQ(topo.server_stack().gro_merged(), 0u);
}

// TX-completion fan-out: two auto-cork connections (ids 1 and 2, created in
// that order) and one plain connection (id 3) share the client stack. The
// link is slow, so a 1000 B send from connection 3 keeps the TX ring busy
// for ~170 us and any small auto-cork send issued meanwhile is held.
struct FanOutFixture {
  FanOutFixture() : topo(SlowLink()) {
    for (uint64_t id = 1; id <= 3; ++id) {
      conns.push_back(topo.Connect(id, id == 3 ? Plain() : Cork(), Plain()));
      conns.back().b->SetReadableCallback([this, id] { arrivals.push_back(id); });
    }
  }

  static TopologyConfig SlowLink() {
    TopologyConfig config;
    config.link.bandwidth_bps = 50e6;
    return config;
  }
  static TcpConfig Plain() {
    TcpConfig config;
    config.nodelay = true;
    config.e2e_exchange_interval = Duration::Zero();
    return config;
  }
  static TcpConfig Cork() {
    TcpConfig config = Plain();
    config.autocork = true;
    return config;
  }

  // Connection 3 fills the TX ring, then each of `corked` sends 60 bytes.
  void BusyThenSend(std::vector<TcpEndpoint*> corked) {
    topo.client_host().app_core().SubmitFixed(Duration::Nanos(100), [this, corked] {
      conns[2].a->Send(1000, Rec(0));
      for (TcpEndpoint* endpoint : corked) {
        endpoint->Send(60, Rec(endpoint->conn_id()));
      }
    });
  }

  TwoHostTopology topo;
  std::vector<ConnectedPair> conns;
  std::vector<uint64_t> arrivals;  // Server-side readable events, by conn id.
};

TEST(TcpStackTest, TxCompletionReleasesAutocorkHoldsInCreationOrder) {
  FanOutFixture f;
  // Connection 2 writes before connection 1; both are held.
  f.BusyThenSend({f.conns[1].a, f.conns[0].a});
  f.topo.sim().RunFor(Duration::Millis(50));
  EXPECT_EQ(f.conns[0].a->stats().autocork_holds, 1u);
  EXPECT_EQ(f.conns[1].a->stats().autocork_holds, 1u);
  EXPECT_EQ(f.conns[2].a->stats().autocork_holds, 0u);
  // The one completion for connection 3's segment walks the auto-cork
  // endpoints in creation order, so 1 goes out before 2.
  EXPECT_EQ(f.arrivals, (std::vector<uint64_t>{3, 1, 2}));
  EXPECT_EQ(f.conns[0].b->ReadableBytes(), 60u);
  EXPECT_EQ(f.conns[1].b->ReadableBytes(), 60u);
}

TEST(TcpStackTest, AutocorkEndpointClosedWhileHeldNeverPushes) {
  FanOutFixture f;
  TcpEndpoint* zombie = f.conns[0].a;
  f.BusyThenSend({zombie, f.conns[1].a});
  f.topo.sim().Schedule(Duration::Micros(50), [&] {
    ASSERT_EQ(zombie->stats().autocork_holds, 1u);  // Still held.
    f.topo.client_stack().CloseEndpoint(1, /*is_a=*/true);
  });
  f.topo.sim().RunFor(Duration::Millis(1));
  EXPECT_EQ(f.arrivals, (std::vector<uint64_t>{3, 2}));

  // A replacement incarnation of connection 1 is held and released like
  // any other auto-cork endpoint; the zombie stays silent.
  f.topo.server_stack().CloseEndpoint(1, /*is_a=*/false);
  ConnectedPair fresh = f.topo.Connect(1, FanOutFixture::Cork(), FanOutFixture::Plain());
  f.BusyThenSend({fresh.a});
  f.topo.sim().RunFor(Duration::Millis(50));
  EXPECT_EQ(fresh.a->stats().autocork_holds, 1u);
  EXPECT_EQ(fresh.b->ReadableBytes(), 60u);
  EXPECT_EQ(zombie->stats().wire_packets_sent, 0u);
  EXPECT_EQ(f.topo.client_stack().endpoints_closed(), 1u);
}

}  // namespace
}  // namespace e2e
